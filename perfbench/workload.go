package main

import (
	"runtime"

	"gaugur/internal/experiments"
	"gaugur/internal/sim"
)

type transport int

const (
	binaryWire transport = iota // serve.Server.StartBinary over loopback
	httpWire                    // serve.Server.Start over loopback
	inProc                      // serve.Pipeline called directly, no sockets
)

// workload is one traffic mix against the same stack. Only the traffic
// differs between workloads.
type workload struct {
	name      string
	transport transport
	// rate is the open-loop base arrival rate (admits per second); peak,
	// when > 1, multiplies it over the middle fifth of every round.
	rate, peak float64
	// catalog draws games from the whole catalog with Zipf popularity;
	// otherwise uniformly from the paper's ten-game study mix.
	catalog bool
	// closedConc is the closed-loop phase's requests in flight; 0 means
	// one per connection.
	closedConc int
}

const (
	occupancy = numServers * maxPerServer / 2 // 50% of the fleet's slots
	zipfS     = 1.2
)

var workloads = []workload{
	{name: "wire-binary", transport: binaryWire, rate: 220},
	{name: "wire-http", transport: httpWire, rate: 220},
	{name: "burst-catalog", transport: inProc, rate: 200, peak: 2, catalog: true, closedConc: 64},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// conns is the wire workloads' connection count: one per CPU, so the
// load generator never runs more connections than it has processors.
func conns() int { return runtime.NumCPU() }

func (w workload) closedInflight() int {
	if w.closedConc > 0 {
		return w.closedConc
	}
	return conns()
}

// traffic builds the workload's arrival process over an open-loop phase
// of horizon seconds.
func (w workload) traffic(env *experiments.Env, horizon float64) traffic {
	tr := traffic{crowd: sim.FlashCrowd{Base: w.rate}, occupancy: occupancy}
	for k := 0; w.peak > 1 && k < rounds; k++ {
		chunk := horizon / rounds
		tr.crowd.Peaks = append(tr.crowd.Peaks, sim.CrowdPeak{At: (float64(k) + 0.4) * chunk, Duration: 0.2 * chunk, Factor: w.peak})
	}
	if w.catalog {
		for _, g := range env.Catalog.Games {
			tr.mix.ids = append(tr.mix.ids, g.ID)
		}
		tr.mix.zipf = zipfS
	} else {
		tr.mix.ids = env.TenGames()
	}
	return tr
}
