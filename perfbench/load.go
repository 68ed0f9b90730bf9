package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A run is an open-loop phase, played as consecutive rounds, then a
// closed-loop phase. The end-to-end figures are medians over the rounds,
// or over the closed loop's intervals, so a slow spell of the host spoils
// a round or an interval rather than the figure.
const (
	rounds    = 3
	openShare = 0.8 // share of the run spent in the open loop
	// satBucket is the closed-loop measuring interval: saturation is the
	// median rate over every interval of the run.
	satBucket = 300 * time.Millisecond
	// spawnLead is how early the in-process dispatcher starts a request's
	// goroutine, which then sleeps to the exact due time itself.
	spawnLead = time.Millisecond
)

// opRec is one open-loop request as the client saw it, in schedule time
// (nanoseconds from the open loop's start): when it was due, when it went
// out, when the answer came back.
type opRec struct {
	due, sent, done int64
	ok              bool
	skipped         bool // a leave whose admit failed: never sent
}

// runner runs one stack's phases; recs[i] records s.Events[i].
type runner struct {
	st       *stack
	clients  []client
	w        workload
	s        schedule
	seed     int64
	open     time.Duration // per round
	recs     []opRec
	satRates []float64 // closed-loop ops/s per interval
	satOps   int
}

func newRunner(st *stack, clients []client, w workload, s schedule, seed int64, openDur time.Duration) *runner {
	return &runner{st: st, clients: clients, w: w, s: s, seed: seed,
		open: openDur / rounds,
		recs: make([]opRec, len(s.Events)),
	}
}

// round returns the round an event falls in.
func (d *runner) round(e event) int { return min(int(e.At/d.open), rounds-1) }

// run plays the open loop round by round, then closedDur of closed loop.
// hook, when set, runs just before (end false) and just after (end true)
// each round.
func (d *runner) run(closedDur time.Duration, hook func(end bool)) {
	lo := 0
	for k := 0; k < rounds; k++ {
		hi := lo
		for hi < len(d.s.Events) && d.round(d.s.Events[hi]) == k {
			hi++
		}
		if hook != nil {
			hook(false)
		}
		d.runOpen(lo, hi, time.Duration(k)*d.open)
		if hook != nil {
			hook(true)
		}
		lo = hi
	}
	d.satRates, d.satOps = closedLoop(d.st, fanOut(d.clients, d.w.closedInflight()), d.w, d.s, closedDur)
}

// runOpen replays events [lo, hi) on time, whatever the server's pace,
// with schedule time offset at the chunk's start. On the wire, each
// connection takes the next event in order and sends it when due. In
// process, each request gets its own goroutine, at most the admission
// queue's size at a time.
func (d *runner) runOpen(lo, hi int, offset time.Duration) {
	s, st := d.s, d.st
	base := time.Now()
	now := func() int64 { return int64(offset + time.Since(base)) }
	// Senders sleep in the kernel rather than on a runtime timer, whose
	// millisecond granularity would make the generator, not the server,
	// the larger part of a ~1 ms admission. A signal can cut the sleep
	// short, hence the loop.
	wait := func(at time.Duration) {
		for left := at - time.Duration(now()); left > 0; left = at - time.Duration(now()) {
			ts := syscall.NsecToTimespec(int64(left))
			syscall.Nanosleep(&ts, nil)
		}
	}
	hasSeq := d.w.transport == inProc
	do := func(i int, c client) {
		e, r := s.Events[i], &d.recs[i]
		r.due = int64(e.At)
		wait(e.At)
		if e.Kind == opAdmit {
			game := s.Games[e.Slot]
			r.sent = now()
			pl, err := c.admit(game, traceID(d.seed, e.Slot))
			r.done = now()
			r.ok = err == nil
			st.led.admitted(e.Slot, game, pl, err, hasSeq)
			return
		}
		sess, ok := st.led.slotSession(e.Slot)
		if !ok {
			r.skipped = true
			return
		}
		r.sent = now()
		err := c.leave(sess)
		r.done = now()
		r.ok = err == nil
		st.led.left(sess, err)
	}

	var wg sync.WaitGroup
	if d.w.transport == inProc {
		sem := make(chan struct{}, queueCap)
		for i := lo; i < hi; i++ {
			wait(s.Events[i].At - spawnLead)
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				do(i, d.clients[0])
				<-sem
			}(i)
		}
		wg.Wait()
		return
	}
	jobs := make(chan int, hi-lo) // holds the whole chunk
	for i := lo; i < hi; i++ {
		jobs <- i
	}
	close(jobs)
	for _, c := range d.clients {
		wg.Add(1)
		go func(c client) {
			defer wg.Done()
			for i := range jobs {
				do(i, c)
			}
		}(c)
	}
	wg.Wait()
}

// closedLoop drives the stack at saturation for dur: each caller loops
// admit-then-leave, leaving its oldest session, so occupancy holds steady
// while the whole fleet churns. The live sessions at the start are dealt
// round-robin to the callers. Returns the completed admits plus leaves
// per second of each satBucket interval, and the ops completed.
func closedLoop(st *stack, clients []client, w workload, s schedule, dur time.Duration) ([]float64, int) {
	queues := make([][]int, len(clients))
	for i, sid := range st.led.liveSessions() {
		queues[i%len(clients)] = append(queues[i%len(clients)], sid)
	}
	hasSeq := w.transport == inProc
	nb := max(1, int(dur/satBucket))
	width := dur / time.Duration(nb)
	counts := make([]atomic.Int64, nb)
	start := time.Now()
	deadline := start.Add(dur)
	mark := func() {
		if b := int(time.Since(start) / width); b < nb {
			counts[b].Add(1)
		}
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c client) {
			defer wg.Done()
			pick := s.mix.picker(rand.New(rand.NewSource(s.Closed + int64(i))))
			q := queues[i]
			for time.Now().Before(deadline) {
				game := pick()
				pl, err := c.admit(game, 0)
				st.led.admitted(-1, game, pl, err, hasSeq)
				if err == nil {
					q = append(q, pl.Session)
					mark()
				}
				if len(q) == 0 {
					continue
				}
				sid := q[0]
				q = q[1:]
				err = c.leave(sid)
				st.led.left(sid, err)
				if err == nil {
					mark()
				}
			}
		}(i, c)
	}
	wg.Wait()
	rates := make([]float64, nb)
	total := 0
	for b := range counts {
		n := counts[b].Load()
		total += int(n)
		rates[b] = float64(n) / width.Seconds()
	}
	return rates, total
}
