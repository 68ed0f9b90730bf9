package serve

import (
	"sync"
	"testing"
	"time"

	"gaugur/internal/obs"
)

// TestArrivalGapDecision drives the arrival-gap estimate over synthetic
// enqueue stamps: the first op never waits, sparse gaps skip the wait,
// dense gaps arm it for two estimated gaps, and the EWMA moves by 1/8 of
// each new gap's error.
func TestArrivalGapDecision(t *testing.T) {
	const delay = 200 * time.Microsecond
	feed := func(g *arrivalGap, from int64, gap time.Duration, n int) int64 {
		for i := 0; i < n; i++ {
			g.observe(from)
			from += int64(gap)
		}
		return from
	}

	var g arrivalGap
	if _, ok := g.wait(delay); ok {
		t.Fatal("a lane that has seen nothing armed a wait")
	}
	g.observe(5e9)
	if _, ok := g.wait(delay); ok {
		t.Fatal("the first op armed a wait before any gap was seen")
	}

	var sparse arrivalGap
	sparseEnd := feed(&sparse, 0, 5*time.Millisecond, 50)
	if _, ok := sparse.wait(delay); ok {
		t.Fatalf("5ms gaps against a 200µs delay armed a wait (ewma %v)", time.Duration(sparse.ewma))
	}
	if sparse.ewma != int64(5*time.Millisecond) {
		t.Fatalf("steady 5ms gaps: ewma %v", time.Duration(sparse.ewma))
	}

	var dense arrivalGap
	at := feed(&dense, 0, 20*time.Microsecond, 50)
	d, ok := dense.wait(delay)
	if !ok || d != 40*time.Microsecond {
		t.Fatalf("20µs gaps: wait %v armed %v, want 40µs armed", d, ok)
	}
	// Two estimated gaps past the delay are capped at it.
	dense.observe(at + int64(60*time.Microsecond))
	if d, ok := dense.wait(50 * time.Microsecond); !ok || d != 50*time.Microsecond {
		t.Fatalf("wait %v armed %v, want capped at the 50µs delay", d, ok)
	}
	if _, ok := dense.wait(0); ok {
		t.Fatal("a zero delay armed a wait")
	}

	// α = 1/8, seeded by the first gap: 1ms, then a 9ms gap moves the
	// estimate by (9-1)/8 = 1ms.
	var step arrivalGap
	step.observe(0)
	step.observe(int64(time.Millisecond))
	if step.ewma != int64(time.Millisecond) {
		t.Fatalf("seed: ewma %v, want the first gap", time.Duration(step.ewma))
	}
	step.observe(int64(10 * time.Millisecond))
	if step.ewma != int64(2*time.Millisecond) {
		t.Fatalf("after a 9ms gap: ewma %v, want 2ms", time.Duration(step.ewma))
	}
	// A stamp older than the newest seen (producers race between stamping
	// and enqueueing) is a zero gap and leaves the newest stamp in place.
	step.observe(int64(9 * time.Millisecond))
	if step.ewma != int64(1750*time.Microsecond) || step.last != int64(10*time.Millisecond) {
		t.Fatalf("out-of-order stamp: ewma %v last %v", time.Duration(step.ewma), time.Duration(step.last))
	}

	// Arrivals turning dense flip the decision within a few gaps.
	feed(&sparse, sparseEnd, 10*time.Microsecond, 30)
	if _, ok := sparse.wait(delay); !ok {
		t.Fatalf("30 dense arrivals after sparse ones still skip (ewma %v)", time.Duration(sparse.ewma))
	}
}

// TestSequentialAdmitsInsideDelay: one client admitting sequentially, with
// a pause between admits, never has a second arrival in flight for the
// collector to catch. The first admit skips the wait (no gap seen yet) and
// later ones wait at most two estimated gaps, a few milliseconds here, so
// under a 1s BatchDelay each admit returns far inside the delay, where an
// unconditional wait made each take >= 1s.
func TestSequentialAdmitsInsideDelay(t *testing.T) {
	c := testCluster(t, 64, 4, 4, nil)
	reg := obs.New()
	p, err := NewPipeline(PipelineConfig{Cluster: c, BatchDelay: time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 20
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := p.Admit(i % 5); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		if el := time.Since(t0); el > 250*time.Millisecond {
			t.Fatalf("admit %d took %v under a 1s batch delay with no other arrival", i, el)
		}
		time.Sleep(time.Millisecond)
	}
	if got := p.met.admitted.Value(); got != n {
		t.Fatalf("admitted %d, want %d", got, n)
	}
	if skipped := p.met.waitsSkipped.Value(); skipped == 0 {
		t.Fatal("the first admit did not count a skipped wait")
	}
}

// TestDenseArrivalsStillCoalesce: submitters arriving far faster than the
// batch delay, each without waiting for the others, must still be
// coalesced into batches of more than one op by the straggler wait.
func TestDenseArrivalsStillCoalesce(t *testing.T) {
	c := testCluster(t, 64, 4, 4, nil)
	reg := obs.New()
	p, err := NewPipeline(PipelineConfig{Cluster: c, BatchDelay: 50 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := p.Admit(g % 6); err != nil {
				t.Errorf("admit: %v", err)
			}
		}(i)
		time.Sleep(100 * time.Microsecond)
	}
	wg.Wait()
	p.Close()
	if got := p.met.admitted.Value(); got != n {
		t.Fatalf("admitted %d, want %d", got, n)
	}
	if armed := p.met.waitsArmed.Value(); armed == 0 {
		t.Fatal("dense arrivals never armed the straggler wait")
	}
	if b := p.met.batchSize; b.Count() >= n {
		t.Fatalf("%d dispatches for %d arrivals: no batch held more than one op", b.Count(), n)
	}
}
