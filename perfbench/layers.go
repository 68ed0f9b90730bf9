package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"time"

	"gaugur/internal/obs/trace"
)

// The counters the traced window reads at both ends of every round.
const (
	cWallNS = iota
	cPlaced
	cProbes
	cScanned
	cMisses
	cEscapes
	cCalls
	cStates
	cBusyNS
	cAllocBytes
	cGCCPU
	cTotalCPU
	nCounters
)

type counters [nCounters]float64

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readCounters reads every counter once the collector's published stats
// cover every answered op.
func readCounters(st *stack, start time.Time) counters {
	fs := st.settle()
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return counters{
		cWallNS:     float64(time.Since(start)),
		cPlaced:     float64(fs.Placed),
		cProbes:     float64(fs.ScoreProbes),
		cScanned:    float64(fs.Scanned),
		cMisses:     float64(fs.CacheMisses),
		cEscapes:    float64(fs.Escapes),
		cCalls:      float64(st.scorer.calls.Load()),
		cStates:     float64(st.scorer.states.Load()),
		cBusyNS:     float64(st.scorer.busyNS.Load()),
		cAllocBytes: float64(s[0].Value.Uint64()),
		cGCCPU:      s[1].Value.Float64(),
		cTotalCPU:   s[2].Value.Float64(),
	}
}

// addDelta accumulates the counters' growth from c0 to c1.
func (c *counters) addDelta(c0, c1 counters) {
	for i := range c {
		c[i] += c1[i] - c0[i]
	}
}

// spanIndex groups one trace's spans by parent.
type spanIndex struct {
	root     trace.Span
	children map[uint64][]trace.Span
}

func indexSpans(tr trace.Trace) spanIndex {
	ix := spanIndex{children: map[uint64][]trace.Span{}}
	for _, sp := range tr.Spans {
		if sp.SpanID == tr.Root {
			ix.root = sp
		} else {
			ix.children[sp.Parent] = append(ix.children[sp.Parent], sp)
		}
	}
	return ix
}

// child returns the named child span of parent.
func (ix spanIndex) child(parent uint64, name string) (trace.Span, bool) {
	for _, sp := range ix.children[parent] {
		if sp.Name == name {
			return sp, true
		}
	}
	return trace.Span{}, false
}

// self is a span's duration minus what its children cover.
func (ix spanIndex) self(sp trace.Span) int64 {
	var iv [][2]int64
	for _, c := range ix.children[sp.SpanID] {
		iv = append(iv, [2]int64{c.StartNS, c.EndNS})
	}
	return selfTime(sp.StartNS, sp.EndNS, iv)
}

// breakdown holds one series of microsecond samples per layer of the
// admission path, aligned by admit.
type breakdown struct {
	lag, wire, queue, coalesce, placeSelf, score, commit, handoff, client []float64
	place, remove                                                         []float64
	dispatches                                                            map[int64]bool
	batched, missing                                                      int
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// analyze joins the open-loop records with the window's traces. Admits
// match their trace by the id the generator sent; leaves, whose ids the
// server mints, are every "leave" trace that started inside one of the
// windows (on the tracer's clock).
func analyze(w workload, s schedule, seed int64, recs []opRec, traces []trace.Trace, windows [][2]int64) breakdown {
	b := breakdown{dispatches: map[int64]bool{}}
	admits := map[uint64]trace.Trace{}
	countDispatch := func(ix spanIndex) {
		if c, ok := ix.child(ix.root.SpanID, "coalesce"); ok {
			b.dispatches[c.EndNS] = true
			b.batched++
		}
	}
	for _, tr := range traces {
		switch {
		case tr.Name == "admission":
			admits[tr.ID] = tr
		case tr.Name == "leave" && inWindow(tr.StartNS, windows):
			ix := indexSpans(tr)
			countDispatch(ix)
			if rm, ok := ix.child(ix.root.SpanID, "remove"); ok {
				b.remove = append(b.remove, us(rm.DurationNS()))
			}
		}
	}
	for i, e := range s.Events {
		r := recs[i]
		if e.Kind != opAdmit || !r.ok {
			continue
		}
		tr, ok := admits[traceID(seed, e.Slot)]
		if !ok {
			b.missing++
			continue
		}
		ix := indexSpans(tr)
		countDispatch(ix)
		root := ix.root.SpanID
		dur := func(name string) float64 {
			sp, _ := ix.child(root, name)
			return us(sp.DurationNS())
		}
		pb, _ := ix.child(root, "place-batch")
		sc, _ := ix.child(pb.SpanID, "score")
		cm, _ := ix.child(pb.SpanID, "commit")
		wire := 0.0
		if w.transport != inProc {
			wire = us(r.done - r.sent - ix.root.DurationNS())
		}
		b.lag = append(b.lag, us(r.sent-r.due))
		b.wire = append(b.wire, wire)
		b.queue = append(b.queue, dur("queue-wait"))
		b.coalesce = append(b.coalesce, dur("coalesce"))
		b.place = append(b.place, us(pb.DurationNS()))
		b.placeSelf = append(b.placeSelf, us(ix.self(pb)))
		b.score = append(b.score, us(sc.DurationNS()))
		b.commit = append(b.commit, us(cm.DurationNS()))
		b.handoff = append(b.handoff, us(ix.self(ix.root)))
		b.client = append(b.client, us(r.done-r.due))
	}
	return b
}

func inWindow(ns int64, windows [][2]int64) bool {
	for _, w := range windows {
		if ns >= w[0] && ns <= w[1] {
			return true
		}
	}
	return false
}

// layerSum is the mean of everything the layers account for.
func (b breakdown) layerSum() float64 {
	return mean(b.wire) + mean(b.queue) + mean(b.coalesce) + mean(b.place) + mean(b.handoff)
}

// unaccounted is the client latency the layers do not explain: the
// generator's own lateness, and in process the call overhead outside the
// server's root span.
func (b breakdown) unaccounted() float64 { return mean(b.client) - b.layerSum() }

// batchSize is the mean ops per collector dispatch in the window.
func (b breakdown) batchSize() float64 {
	return share(float64(b.batched), float64(len(b.dispatches)))
}

// report prints the self-time table and the additivity check.
func (b breakdown) report(out io.Writer, name string) {
	fmt.Fprintf(out, "traced self-time per admit, %s (%d admits", name, len(b.client))
	if b.missing > 0 {
		fmt.Fprintf(out, ", %d without a trace", b.missing)
	}
	fmt.Fprintln(out, ")")
	fmt.Fprintf(out, "  %-26s %10s %10s %10s %7s\n", "layer", "mean_us", "p50_us", "p99_us", "share")
	total := mean(b.client)
	row := func(label string, xs []float64) {
		fmt.Fprintf(out, "  %-26s %10.1f %10.1f %10.1f %6.1f%%\n", label, mean(xs),
			median(xs), percentile(append([]float64(nil), xs...), 0.99), 100*share(mean(xs), total))
	}
	row("serve wire", b.wire)
	row("serve queue-wait", b.queue)
	row("serve coalesce", b.coalesce)
	row("fleet place-batch (self)", b.placeSelf)
	row("  fleet score", b.score)
	row("  fleet commit", b.commit)
	row("serve hand-off (root self)", b.handoff)
	fmt.Fprintf(out, "  %-26s %10.1f\n", "sum of layers", b.layerSum())
	fmt.Fprintf(out, "  %-26s %10.1f\n", "client latency (from due)", total)
	fmt.Fprintf(out, "  %-26s %10.1f %27.1f%%   (loadgen lag mean %.1f us)\n", "unaccounted",
		b.unaccounted(), 100*share(b.unaccounted(), total), mean(b.lag))
}
