package main

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"time"

	"gaugur/internal/sim"
)

type opKind uint8

const (
	opAdmit opKind = iota
	opLeave
)

// event is one scheduled request of the open-loop phase.
type event struct {
	At   time.Duration // offset from the phase start
	Kind opKind
	Slot int // session slot: an admit fills it, a leave empties it
}

// schedule is everything a workload sends, generated from the seed before
// the program sees any of it.
type schedule struct {
	// Games holds the game of every session slot. The first Prefill slots
	// are admitted during set-up; the rest arrive in the open-loop phase.
	Games   []int
	Prefill int
	// Events are the open-loop phase's requests in send order.
	Events []event
	// Closed seeds the closed-loop phase's per-worker game streams, drawn
	// from mix.
	Closed int64
	mix    gameMix
}

// gameMix draws games either uniformly from a small set or with Zipf
// popularity over a whole catalog (rank i is ids[i]).
type gameMix struct {
	ids  []int
	zipf float64 // exponent > 1; 0 means uniform
}

func (m gameMix) picker(rng *rand.Rand) func() int {
	if m.zipf == 0 {
		return func() int { return m.ids[rng.Intn(len(m.ids))] }
	}
	z := rand.NewZipf(rng, m.zipf, 1, uint64(len(m.ids)-1))
	return func() int { return m.ids[z.Uint64()] }
}

// traffic is a workload's open-loop arrival process.
type traffic struct {
	crowd     sim.FlashCrowd // arrivals per second, in phase seconds
	occupancy int            // sessions live at steady state
	mix       gameMix
}

// makeSchedule generates the open-loop phase of length horizon. Holds are
// exponential with mean occupancy/rate, so prefilled occupancy stays
// steady; prefilled sessions get the same exponential residual hold.
// Leaves due after the horizon are not sent.
func makeSchedule(tr traffic, seed int64, horizon time.Duration) schedule {
	rng := rand.New(rand.NewSource(seed))
	pick := tr.mix.picker(rng)
	h := horizon.Seconds()
	meanHold := float64(tr.occupancy) / tr.crowd.Base
	s := schedule{Prefill: tr.occupancy, Closed: rng.Int63(), mix: tr.mix}
	leaveAt := func(from float64, slot int) {
		if end := from + rng.ExpFloat64()*meanHold; end < h {
			s.Events = append(s.Events, event{At: seconds(end), Kind: opLeave, Slot: slot})
		}
	}
	for slot := 0; slot < tr.occupancy; slot++ {
		s.Games = append(s.Games, pick())
		leaveAt(0, slot)
	}
	for t := tr.crowd.Next(0, rng); t < h; t = tr.crowd.Next(t, rng) {
		slot := len(s.Games)
		s.Games = append(s.Games, pick())
		s.Events = append(s.Events, event{At: seconds(t), Kind: opAdmit, Slot: slot})
		leaveAt(t, slot)
	}
	// A leave always falls after its own admit, so a stable sort by time
	// keeps every slot's admit first.
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s
}

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// encode renders the schedule as bytes, the form its determinism is
// checked in.
func (s schedule) encode() []byte {
	b := binary.AppendVarint(nil, int64(s.Prefill))
	b = binary.AppendVarint(b, s.Closed)
	for _, g := range s.Games {
		b = binary.AppendVarint(b, int64(g))
	}
	for _, e := range s.Events {
		b = binary.AppendVarint(b, int64(e.At))
		b = append(b, byte(e.Kind))
		b = binary.AppendVarint(b, int64(e.Slot))
	}
	return b
}

// traceID names the open-loop admission of a slot, so client records and
// server traces meet on one identifier.
func traceID(seed int64, slot int) uint64 {
	id := uint64(sim.DeriveSeed(seed, "perfbench-trace", int64(slot)))
	if id == 0 {
		return 1
	}
	return id
}
