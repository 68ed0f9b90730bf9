// Command perfbench is the repository's benchmark: it builds the
// `gaugur serve` stack in process, drives one named workload against it,
// checks the fleet's final state against its own ledger, and prints every
// metric as one JSON object on its last line of output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"syscall"
	"time"

	"gaugur/internal/sched"
)

const (
	setupReps = 3 // set-ups per run; setup_s is their median
	qosFloor  = 60.0
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: wire-binary, wire-http or burst-catalog")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (wire-binary, wire-http, burst-catalog), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	r, err := run(w, *seed, time.Duration(*secs)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// run sets the stack up setupReps times, then measures the workload on the
// last stack: end-to-end metrics untraced, or per-layer ones from a second,
// traced stack.
func run(w workload, seed int64, total time.Duration, traced bool) (result, error) {
	openDur := time.Duration(openShare * float64(total))
	closedDur := total - openDur
	var (
		m       model
		s       schedule
		st      *stack
		setups  []float64
		stages  [4][]float64 // profile, collect, train, prefill
		failure []string
	)
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.close()
		}
		var err error
		if m, err = trainModel(); err != nil {
			return result{}, err
		}
		if rep == 0 {
			// The schedule is the benchmark's input, generated once and
			// outside the timed set-up.
			s = makeSchedule(w.traffic(m.env, openDur.Seconds()), seed, openDur)
		}
		t0 := time.Now()
		if st, err = buildStack(m.pred, w, 0, len(s.Games)); err != nil {
			return result{}, err
		}
		t1 := time.Now()
		st.prefill(s)
		prefillS := time.Since(t1).Seconds()
		setups = append(setups, m.profileS+m.collectS+m.trainS+time.Since(t0).Seconds())
		for i, v := range []float64{m.profileS, m.collectS, m.trainS, prefillS} {
			stages[i] = append(stages[i], v)
		}
	}
	defer func() { st.close() }()
	failure = append(failure, checkRMError(m.rmError)...)
	fmt.Printf("workload %s  seed %d  open loop %d rounds of %s, closed loop %s  set-up median %.3fs of %v\n",
		w.name, seed, rounds, openDur/rounds, closedDur, median(setups), setups)

	if !traced {
		clients, closeClients, err := dialClients(st, w, conns())
		if err != nil {
			return result{}, err
		}
		d := newRunner(st, clients, w, s, seed, openDur)
		d.run(closedDur, nil)
		closeClients()
		v, err := st.drain()
		if err != nil {
			return result{}, fmt.Errorf("drain: %w", err)
		}
		failure = append(failure, st.led.check(v)...)
		r := result{Attempted: st.led.attempted, Failed: st.led.failed}
		if r.Correct = len(failure) == 0; !r.Correct {
			return fail(r, failure), nil
		}
		r.Metrics = endToEnd(m, d, v, median(setups))
		return r, nil
	}
	return runTraced(m, w, s, seed, st, openDur, closedDur, stages, failure)
}

// fail prints why the gate failed and reports no numbers.
func fail(r result, why []string) result {
	fmt.Println("correctness gate FAILED:")
	for _, f := range why {
		fmt.Println("  " + f)
	}
	r.Correct = false
	r.Metrics = map[string]metric{}
	return r
}

// fanOut repeats clients until there are n of them: in process every
// caller shares the pipeline; on the wire, n equals the connections.
func fanOut(clients []client, n int) []client {
	out := make([]client, n)
	for i := range out {
		out[i] = clients[i%len(clients)]
	}
	return out
}

// endToEnd computes the user-facing metrics. Latency percentiles are the
// median over rounds of each round's percentile; a failed admit counts as
// beyond every limit. The p99 is printed but is not a benchmark metric:
// it swings with the host's state between runs by more than any bound.
func endToEnd(m model, d *runner, v fleetView, setupS float64) map[string]metric {
	lat := make([][]float64, rounds)
	var lag, rtt []float64
	attempted, failed, timed := 0, 0, 0
	for i, e := range d.s.Events {
		r := d.recs[i]
		if r.skipped {
			continue
		}
		attempted++
		if !r.ok {
			failed++
		}
		if e.Kind != opAdmit {
			continue
		}
		ms := math.Inf(1)
		if r.ok {
			ms = float64(r.done-r.due) / 1e6
			lag = append(lag, float64(r.sent-r.due)/1e6)
			rtt = append(rtt, float64(r.done-r.sent)/1e6)
		}
		lat[d.round(e)] = append(lat[d.round(e)], ms)
		timed++
	}
	fewest := timed
	for _, l := range lat {
		fewest = min(fewest, len(l))
	}
	fmt.Printf("open loop: %d ops, %d failed; %d admits timed, fewest in a round %d; closed loop: %d ops over %d intervals\n",
		attempted, failed, timed, fewest, d.satOps, len(d.satRates))
	fmt.Printf("admit latency from due, median over rounds: p50 %.3f ms  p90 %.3f ms  p99 %.3f ms\n",
		medianOf(lat, .5), medianOf(lat, .9), medianOf(lat, .99))
	fmt.Printf("whole run: send lag p50 %.3f ms  p99 %.3f ms; round trip p50 %.3f ms  p99 %.3f ms\n",
		percentile(lag, .5), percentile(lag, .99), percentile(rtt, .5), percentile(rtt, .99))
	fps := sched.EvaluateFleet(m.env.Lab, v.servers)
	below := 0
	sum := 0.0
	for _, f := range fps {
		sum += f
		if f < qosFloor {
			below++
		}
	}
	var rus syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &rus) // Linux reports ru_maxrss in KiB
	out := map[string]metric{
		"admit_p50_ms":      {medianOf(lat, 0.5), "ms"},
		"admit_ok_pct":      {100 * (1 - share(float64(failed), float64(attempted))), "%"},
		"sat_ops_s":         {median(d.satRates), "1/s"},
		"qos_violation_pct": {100 * share(float64(below), float64(len(fps))), "%"},
		"mean_fps":          {sum / float64(len(fps)), "fps"},
		"model_rm_error":    {m.rmError, "ratio"},
		"setup_s":           {setupS, "s"},
		"rss_peak_mb":       {float64(rus.Maxrss) / 1024, "MiB"},
	}
	printMetrics(out, map[string]int{
		"admit_p50_ms": timed, "admit_ok_pct": attempted,
		"sat_ops_s": d.satOps, "qos_violation_pct": len(fps), "mean_fps": len(fps),
		"model_rm_error": m.testSamples, "setup_s": setupReps, "rss_peak_mb": 1,
	})
	return out
}

// printMetrics lists the metrics for a reader, with the samples behind
// each where samples names them.
func printMetrics(ms map[string]metric, samples map[string]int) {
	var b strings.Builder
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(&b, "  %-28s %14.4f %-6s", k, ms[k].Value, ms[k].Unit)
		if n, ok := samples[k]; ok {
			fmt.Fprintf(&b, " n=%d", n)
		}
		b.WriteByte('\n')
	}
	fmt.Print(b.String())
}
