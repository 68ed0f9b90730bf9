package main

import (
	"bytes"
	"testing"
	"time"

	"gaugur/internal/sim"
)

func testTraffic(zipf float64) traffic {
	mix := gameMix{zipf: zipf}
	for g := 0; g < 100; g++ {
		mix.ids = append(mix.ids, g)
	}
	return traffic{
		crowd:     sim.FlashCrowd{Base: 500, Peaks: []sim.CrowdPeak{{At: 0.8, Duration: 0.4, Factor: 2}}},
		occupancy: 256,
		mix:       mix,
	}
}

func TestScheduleByteIdenticalForSeed(t *testing.T) {
	for _, zipf := range []float64{0, zipfS} {
		tr := testTraffic(zipf)
		a := makeSchedule(tr, 7, 2*time.Second).encode()
		b := makeSchedule(tr, 7, 2*time.Second).encode()
		if !bytes.Equal(a, b) {
			t.Fatalf("zipf %g: two schedules from seed 7 differ", zipf)
		}
		if c := makeSchedule(tr, 8, 2*time.Second).encode(); bytes.Equal(a, c) {
			t.Fatalf("zipf %g: seeds 7 and 8 gave the same schedule", zipf)
		}
	}
}

func TestScheduleOrdersEveryLeaveAfterItsAdmit(t *testing.T) {
	s := makeSchedule(testTraffic(zipfS), 3, 2*time.Second)
	admitted := make([]bool, len(s.Games))
	for i := 0; i < s.Prefill; i++ {
		admitted[i] = true
	}
	left := make([]bool, len(s.Games))
	admits := 0
	for i, e := range s.Events {
		if i > 0 && e.At < s.Events[i-1].At {
			t.Fatalf("event %d at %s precedes event %d at %s", i, e.At, i-1, s.Events[i-1].At)
		}
		switch e.Kind {
		case opAdmit:
			if admitted[e.Slot] {
				t.Fatalf("slot %d admitted twice", e.Slot)
			}
			admitted[e.Slot] = true
			admits++
		case opLeave:
			if !admitted[e.Slot] || left[e.Slot] {
				t.Fatalf("leave of slot %d before its admit or twice", e.Slot)
			}
			left[e.Slot] = true
		}
	}
	// 500/s for 2 s, doubled for 0.4 s: about 1200 arrivals.
	if admits < 1000 || admits > 1400 || admits != len(s.Games)-s.Prefill {
		t.Fatalf("%d arrivals for %d arrival slots", admits, len(s.Games)-s.Prefill)
	}
}
