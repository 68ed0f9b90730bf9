package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"gaugur/internal/obs/trace"
)

// runTraced measures the per-layer metrics. The set-up stack first runs
// the closed loop untraced, the reference for the tracing overhead; then a
// second stack with a keep-everything tracer plays both phases. The traced
// window is the open loop: its traces are read from the store after each
// round, and its counters are summed over the rounds.
func runTraced(m model, w workload, s schedule, seed int64, st *stack, openDur, closedDur time.Duration,
	stages [4][]float64, failure []string) (result, error) {
	clients, closeClients, err := dialClients(st, w, conns())
	if err != nil {
		return result{}, err
	}
	ref, _ := closedLoop(st, fanOut(clients, w.closedInflight()), w, s, closedDur)
	satU := median(ref)
	closeClients()
	v, err := st.drain()
	if err != nil {
		return result{}, fmt.Errorf("drain: %w", err)
	}
	failure = append(failure, st.led.check(v)...)
	st.close()

	// The store holds the prefill and every open-loop op, so no chunk's
	// traces can be evicted before they are read.
	ts, err := buildStack(m.pred, w, s.Prefill+len(s.Events), len(s.Games))
	if err != nil {
		return result{}, err
	}
	defer ts.close()
	ts.prefill(s)
	if clients, closeClients, err = dialClients(ts, w, conns()); err != nil {
		return result{}, err
	}
	store := ts.tracer.Store()
	start := time.Now()
	var (
		c0, window counters
		total0     int64
		spans      [][2]int64
		traces     []trace.Trace
	)
	d := newRunner(ts, clients, w, s, seed, openDur)
	d.run(closedDur, func(end bool) {
		c := readCounters(ts, start)
		now := ts.tracer.Now()
		if !end {
			c0, total0 = c, store.Total()
			spans = append(spans, [2]int64{now, 0})
			return
		}
		window.addDelta(c0, c)
		spans[len(spans)-1][1] = now
		n := int(store.Total() - total0)
		if n > store.Capacity() {
			failure = append(failure, fmt.Sprintf("a round left %d traces, the store holds %d", n, store.Capacity()))
		}
		traces = append(traces, store.Recent(n)...)
	})
	closeClients()
	if v, err = ts.drain(); err != nil {
		return result{}, fmt.Errorf("drain: %w", err)
	}
	failure = append(failure, ts.led.check(v)...)
	b := analyze(w, s, seed, d.recs, traces, spans)
	if b.missing > 0 {
		failure = append(failure, fmt.Sprintf("%d admits of the window have no trace", b.missing))
	}
	r := result{
		Attempted: st.led.attempted + ts.led.attempted,
		Failed:    st.led.failed + ts.led.failed,
	}
	if len(failure) > 0 {
		return fail(r, failure), nil
	}
	r.Correct = true

	b.report(os.Stdout, w.name)
	var lag []float64
	windowOps := 0
	for _, rec := range d.recs {
		if !rec.skipped {
			windowOps++
			lag = append(lag, float64(rec.sent-rec.due)/1e6)
		}
	}
	satT := median(d.satRates)
	r.Metrics = map[string]metric{
		"serve.wire_us":              {mean(b.wire), "us"},
		"serve.queue_wait_us":        {mean(b.queue), "us"},
		"serve.coalesce_us":          {mean(b.coalesce), "us"},
		"serve.handoff_us":           {mean(b.handoff), "us"},
		"serve.unaccounted_us":       {b.unaccounted(), "us"},
		"serve.batch_size":           {b.batchSize(), "ops"},
		"serve.queue_full":           {float64(ts.led.counts().queueFull), "count"},
		"fleet.place_us":             {mean(b.place), "us"},
		"fleet.probe_us":             {mean(b.score), "us"},
		"fleet.commit_us":            {mean(b.commit), "us"},
		"fleet.remove_us":            {mean(b.remove), "us"},
		"fleet.probes_per_admit":     {share(window[cProbes], window[cPlaced]), "probes"},
		"fleet.scanned_per_admit":    {share(window[cScanned], window[cPlaced]), "states"},
		"fleet.cache_miss_ratio":     {share(window[cMisses], window[cScanned]), "ratio"},
		"fleet.escapes":              {window[cEscapes], "count"},
		"core.score_calls":           {window[cCalls], "count"},
		"core.states_per_call":       {share(window[cStates], window[cCalls]), "states"},
		"core.score_us_per_state":    {share(window[cBusyNS]/1e3, window[cStates]), "us"},
		"core.score_busy_pct":        {100 * share(window[cBusyNS], window[cWallNS]), "%"},
		"setup.profile_s":            {median(stages[0]), "s"},
		"setup.collect_s":            {median(stages[1]), "s"},
		"setup.train_s":              {median(stages[2]), "s"},
		"setup.prefill_s":            {median(stages[3]), "s"},
		"runtime.alloc_bytes_per_op": {share(window[cAllocBytes], float64(windowOps)), "B"},
		"runtime.gc_cpu_pct":         {100 * share(window[cGCCPU], window[cTotalCPU]), "%"},
		"loadgen.lag_p99_ms":         {percentile(lag, 0.99), "ms"},
		"trace.overhead_pct":         {100 * (satU/satT - 1), "%"},
	}
	fmt.Printf("closed loop: untraced %.0f ops/s, traced %.0f ops/s; traced window %s over %d rounds\n",
		satU, satT, time.Duration(window[cWallNS]).Round(time.Millisecond), len(spans))
	printMetrics(r.Metrics, nil)
	return r, nil
}

func sortedKeys(ms map[string]metric) []string {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
