package main

import (
	"math"
	"testing"
	"time"

	"gaugur/internal/obs/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Fatalf("p50 = %g, want 50", got)
	}
	if got := percentile(xs, 0.99); got != 99 {
		t.Fatalf("p99 = %g, want 99", got)
	}
	if got := percentile([]float64{3}, 0.99); got != 3 {
		t.Fatalf("p99 of one sample = %g, want 3", got)
	}
	// Two failures in 100 admits put p99 beyond every limit.
	xs[0], xs[1] = math.Inf(1), math.Inf(1)
	if got := percentile(xs, 0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 2%% failures = %g, want +Inf", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Fatal("percentile of no samples is not NaN")
	}
}

func TestMedianOfRounds(t *testing.T) {
	// Five rounds of 1000 samples of 1; a stall makes 40 samples of one
	// round slow. That round's p99 is 50, the median over rounds 1.
	groups := make([][]float64, 5)
	for k := range groups {
		groups[k] = make([]float64, 1000)
		for i := range groups[k] {
			groups[k][i] = 1
		}
	}
	for i := 200; i < 240; i++ {
		groups[2][i] = 50
	}
	if got := percentile(append([]float64(nil), groups[2]...), 0.99); got != 50 {
		t.Fatalf("stalled round's p99 = %g, want 50", got)
	}
	if got := medianOf(groups, 0.99); got != 1 {
		t.Fatalf("median p99 over rounds = %g, want 1", got)
	}
	if got := medianOf([][]float64{{1, 2, 3}, nil, {4, 5, 6}, {7, 8, 9}}, 0.5); got != 5 {
		t.Fatalf("median of round medians = %g, want 5", got)
	}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		children [][2]int64
		want     int64
	}{
		{nil, 100},
		{[][2]int64{{10, 20}}, 90},
		// Overlapping children count once; parts outside the parent not at all.
		{[][2]int64{{10, 20}, {15, 30}, {90, 120}, {-5, 2}}, 100 - 20 - 10 - 2},
		{[][2]int64{{0, 100}, {40, 60}}, 0},
		{[][2]int64{{200, 300}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("selfTime(0, 100, %v) = %d, want %d", c.children, got, c.want)
		}
	}
}

// TestBreakdownAddsUp builds one admission trace by hand and checks that
// the layers plus the unaccounted remainder add up to the client latency.
func TestBreakdownAddsUp(t *testing.T) {
	const seed = 5
	s := schedule{Games: []int{4}, Events: []event{{At: time.Millisecond, Kind: opAdmit, Slot: 0}}}
	// Client view (ns from phase start): due 1000us, sent 1100us, done 2500us.
	recs := []opRec{{due: 1_000_000, sent: 1_100_000, done: 2_500_000, ok: true}}
	// Server view on the tracer clock: root 1000us long, children inside.
	tr := trace.Trace{ID: traceID(seed, 0), Name: "admission", Root: 1, Spans: []trace.Span{
		{SpanID: 1, Name: "admission", StartNS: 0, EndNS: 1_000_000},
		{SpanID: 2, Parent: 1, Name: "queue-wait", StartNS: 0, EndNS: 50_000},
		{SpanID: 3, Parent: 1, Name: "coalesce", StartNS: 50_000, EndNS: 650_000},
		{SpanID: 4, Parent: 1, Name: "place-batch", StartNS: 700_000, EndNS: 900_000},
		{SpanID: 5, Parent: 4, Name: "score", StartNS: 700_000, EndNS: 880_000},
		{SpanID: 6, Parent: 4, Name: "commit", StartNS: 880_000, EndNS: 900_000},
	}}
	w, _ := findWorkload("wire-binary")
	b := analyze(w, s, seed, recs, []trace.Trace{tr}, nil)
	want := map[string][2]float64{
		"wire":       {b.wire[0], 400}, // 1400us round trip - 1000us root
		"queue-wait": {b.queue[0], 50},
		"coalesce":   {b.coalesce[0], 600},
		"place":      {b.place[0], 200},
		"place self": {b.placeSelf[0], 0},
		"score":      {b.score[0], 180},
		"hand-off":   {b.handoff[0], 150}, // 650..700 and 900..1000
		"lag":        {b.lag[0], 100},
		"client":     {b.client[0], 1500},
	}
	for name, gw := range want {
		if gw[0] != gw[1] {
			t.Errorf("%s = %g us, want %g", name, gw[0], gw[1])
		}
	}
	if got := b.layerSum() + b.unaccounted(); got != mean(b.client) {
		t.Errorf("layers %g + unaccounted %g != client %g", b.layerSum(), b.unaccounted(), mean(b.client))
	}
	if b.unaccounted() != 100 { // exactly the generator's lag
		t.Errorf("unaccounted = %g us, want the 100 us lag", b.unaccounted())
	}
	if b.batchSize() != 1 {
		t.Errorf("batch size = %g, want 1", b.batchSize())
	}
}
