package fleet

import (
	"sync"

	"gaugur/internal/core"
)

// predictorScorer adapts a core.Predictor to BatchScorer: all states in a
// probe are converted to colocations once and pushed through the
// predictor's blocked batch kernel in a single call, instead of one forest
// walk per state. Conversion buffers are pooled because every shard
// goroutine scores concurrently during the fan-out.
type predictorScorer struct {
	p    *core.Predictor
	pool sync.Pool
}

type scorerBufs struct {
	colocs []core.Colocation
	flat   []core.Workload
}

// NewPredictorScorer wraps a trained predictor for fleet scoring. States
// are game-id multisets; each member runs at core.ReferenceResolution
// (the same convention as the flat dispatcher's scorer closures).
func NewPredictorScorer(p *core.Predictor) BatchScorer {
	return &predictorScorer{
		p:    p,
		pool: sync.Pool{New: func() any { return &scorerBufs{} }},
	}
}

// Known implements GameSet: only games with a profile can be scored.
func (ps *predictorScorer) Known(game int) bool { return ps.p.Profiles.Get(game) != nil }

func (ps *predictorScorer) ScoreStates(states [][]int, dst []float64) []float64 {
	b := ps.pool.Get().(*scorerBufs)
	total := 0
	for _, s := range states {
		total += len(s)
	}
	if cap(b.flat) < total {
		b.flat = make([]core.Workload, total)
	}
	b.flat = b.flat[:total]
	b.colocs = b.colocs[:0]
	at := 0
	for _, s := range states {
		c := b.flat[at : at+len(s) : at+len(s)]
		for i, g := range s {
			c[i] = core.Workload{GameID: g, Res: core.ReferenceResolution}
		}
		b.colocs = append(b.colocs, core.Colocation(c))
		at += len(s)
	}
	// The batch call's return value IS the result: when dst's capacity is
	// short it reallocates, and the old in-place copy(dst, res) silently
	// truncated exactly that case. Returning it keeps every score.
	dst = ps.p.PredictTotalFPSBatch(b.colocs, dst)
	ps.pool.Put(b)
	return dst
}
