package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gaugur/internal/core"
	"gaugur/internal/experiments"
	"gaugur/internal/ml"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/serve"
	"gaugur/internal/sim"
)

// The serving stack mirrors `gaugur serve`'s flag defaults.
const (
	numServers   = 1024
	numShards    = 8
	sampleK      = 2
	maxPerServer = 4
	batchWindow  = 16
	batchDelay   = 200 * time.Microsecond
	queueCap     = 256
	balancerSeed = 17

	// fig7bRMError is EXPERIMENTS.md's Figure 7b GAugur(RM) error, to the
	// three digits it is published with.
	fig7bRMError = 0.115
	prefillConc  = batchWindow // prefill submitters: one full batch
)

// model is the trained predictor plus the set-up stage timings.
type model struct {
	env  *experiments.Env
	pred *core.Predictor
	// rmError is the RM's mean relative error on the testSamples
	// held-out samples.
	rmError                    float64
	testSamples                int
	profileS, collectS, trainS float64
}

// trainModel profiles the catalog, collects the 400/300 train/held-out
// samples of experiments.DefaultConfig, and trains GBRT+GBDT at QoS 60.
func trainModel() (model, error) {
	cfg := experiments.DefaultConfig()
	t0 := time.Now()
	env, err := experiments.New(cfg) // profile.Profiler.ProfileCatalog
	if err != nil {
		return model{}, fmt.Errorf("profile catalog: %w", err)
	}
	t1 := time.Now()
	_, test := env.Samples(cfg.QoSHigh) // core.Lab.CollectSamples, both splits
	t2 := time.Now()
	pred, err := env.GAugur(cfg.QoSHigh) // core.Train
	if err != nil {
		return model{}, fmt.Errorf("train: %w", err)
	}
	t3 := time.Now()
	// The same error Figure 7b reports: clamped RM prediction against the
	// measured degradation of every held-out sample.
	sum := 0.0
	for _, s := range test.Samples {
		sum += ml.RelativeError(math.Min(math.Max(pred.RM.Predict(s.RMX), 0), 1), s.RMY)
	}
	return model{
		env: env, pred: pred,
		rmError:     sum / float64(test.Len()),
		testSamples: test.Len(),
		profileS:    t1.Sub(t0).Seconds(),
		collectS:    t2.Sub(t1).Seconds(),
		trainS:      t3.Sub(t2).Seconds(),
	}, nil
}

// timedScorer counts and times every call into the predictor scorer: the
// core layer measured from outside.
type timedScorer struct {
	inner                 fleet.BatchScorer
	calls, states, busyNS atomic.Int64
}

func (s *timedScorer) ScoreStates(states [][]int, dst []float64) []float64 {
	t0 := time.Now()
	dst = s.inner.ScoreStates(states, dst)
	s.busyNS.Add(int64(time.Since(t0)))
	s.calls.Add(1)
	s.states.Add(int64(len(states)))
	return dst
}

// stack is one serving stack built the way cmdServe builds it.
type stack struct {
	cluster *fleet.Cluster
	pipe    *serve.Pipeline
	srv     *serve.Server
	tracer  *trace.Tracer // nil on untraced stacks
	scorer  *timedScorer  // nil on untraced stacks
	led     *ledger
	drained bool
	closed  bool
}

// buildStack chains fleet.New → serve.NewPipeline → serve.NewServer. A
// traceCap > 0 attaches a keep-everything tracer of that capacity to the
// fleet and the pipeline and times the scorer. Wire workloads start the
// HTTP and binary listeners on loopback.
func buildStack(pred *core.Predictor, w workload, traceCap int, slots int) (*stack, error) {
	st := &stack{led: newLedger(slots)}
	var scorer fleet.BatchScorer = fleet.NewPredictorScorer(pred)
	if traceCap > 0 {
		st.tracer = trace.New(trace.Config{Seed: sim.DeriveSeed(balancerSeed, "trace", 0), Capacity: traceCap})
		st.scorer = &timedScorer{inner: scorer}
		scorer = st.scorer
	}
	c, err := fleet.New(fleet.Config{
		NumServers:   numServers,
		ShardCount:   numShards,
		MaxPerServer: maxPerServer,
		K:            sampleK,
		Seed:         balancerSeed,
		Scorer:       scorer,
		Tracer:       st.tracer,
	})
	if err != nil {
		return nil, err
	}
	st.cluster = c
	st.pipe, err = serve.NewPipeline(serve.PipelineConfig{
		Cluster:     c,
		Lanes:       1,
		BatchWindow: batchWindow,
		BatchDelay:  batchDelay,
		QueueCap:    queueCap,
		Tracer:      st.tracer,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	if st.srv, err = serve.NewServer(serve.ServerConfig{Pipeline: st.pipe}); err != nil {
		st.pipe.Close()
		c.Close()
		return nil, err
	}
	if w.transport != inProc {
		if err = st.srv.Start("127.0.0.1:0"); err == nil {
			err = st.srv.StartBinary("127.0.0.1:0")
		}
		if err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// prefill admits the schedule's prefill slots in process, one batch
// window of submitters at a time.
func (st *stack) prefill(s schedule) {
	var wg sync.WaitGroup
	for k := 0; k < prefillConc; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for slot := k; slot < s.Prefill; slot += prefillConc {
				pl, err := st.pipe.Admit(s.Games[slot])
				st.led.admitted(slot, s.Games[slot], pl, err, true)
			}
		}(k)
	}
	wg.Wait()
}

// drain shuts the front end down (every queued op finishes) and returns
// the fleet's final state; the cluster stays open for the read.
func (st *stack) drain() (fleetView, error) {
	st.drained = true
	err := st.srv.Shutdown()
	v := fleetView{stats: st.cluster.Stats(), servers: st.cluster.Snapshot()}
	return v, err
}

// close tears the stack down; safe after drain and more than once.
func (st *stack) close() {
	if st.closed {
		return
	}
	st.closed = true
	if !st.drained {
		st.srv.Shutdown()
	}
	st.cluster.Close()
}

// settle waits until the collector's published counters cover every op
// the ledger has seen answered, so a stats read after a phase is exact.
func (st *stack) settle() fleet.Stats {
	want := st.led.counts()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := st.pipe.Stats()
		if (s.Placed == want.placed && s.Rejected == want.rejected && s.Removed == want.removed) ||
			time.Now().After(deadline) {
			return s
		}
		time.Sleep(time.Millisecond)
	}
}
