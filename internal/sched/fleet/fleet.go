// Package fleet is the sharded, fleet-scale dispatch plane. The flat
// greedy dispatcher (internal/sched) scans every server per arrival —
// fine at ~100 servers, a wall at 10k. Here cluster state is partitioned
// into shards, each owned by its own dispatcher goroutine with a private
// generation-keyed score cache, state-group index, and idle heap; a
// balancer routes each arrival to k sampled shards (power-of-k-choices),
// takes the best predicted-QoS placement among the candidates — every
// candidate is still scored through the interference predictor, never
// blind bin-packing — and falls back to a full-scan escape hatch when all
// k sampled shards reject. When a shard saturates, bounded steal batches
// rebalance sessions toward the emptiest shard, with seeded-deterministic
// victim selection.
//
// Determinism contract: Place/Remove are driven by one caller goroutine
// (the balancer runs on the caller's stack); the only concurrency is the
// k-shard scoring fan-out, whose replies are collected in sampled order
// and reduced by an order-independent (delta, lowest-server-id) rule. A
// given (Config, call sequence) therefore replays byte-identically at any
// shard count, under the race detector, with metrics and tracing on. With
// ShardCount=1 the candidate set degenerates to a full scan and the
// placement sequence is bit-identical to sched.GreedyPolicy; with
// K >= ShardCount (full fan-out, stealing off) it is bit-identical across
// ANY shard count.
package fleet

import (
	"fmt"
	"math/rand"
	"sync"

	"gaugur/internal/obs"
	"gaugur/internal/obs/flight"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sim"
)

// Mode selects the per-shard placement rule.
type Mode int

const (
	// ModeGreedy scores candidate states through the predictor and takes
	// the best total-FPS delta (the interference-aware default).
	ModeGreedy Mode = iota
	// ModeLeastLoaded places on the emptiest sampled server via the idle
	// heaps — the interference-blind strawman, kept for comparison.
	ModeLeastLoaded
)

// BatchScorer scores whole candidate server states: the returned slice
// holds one predicted total FPS per state, written into dst when its
// capacity suffices and into a freshly grown slice otherwise — callers
// must use the RETURN value, never assume dst was filled in place (the
// append contract every batch API in this repo follows). Implementations
// must be safe for concurrent use — every shard goroutine calls the
// shared scorer during the fan-out. Values must be pure functions of the
// state (the caches and all determinism guarantees depend on it).
type BatchScorer interface {
	ScoreStates(states [][]int, dst []float64) []float64
}

// GameSet is implemented by a BatchScorer that can score only a fixed set
// of games: the predictor-backed scorer knows exactly the games of its
// profile set. A scorer without it accepts every game id.
type GameSet interface {
	Known(game int) bool
}

// ScorerFunc adapts a single-state sched.Scorer (which must be pure and
// goroutine-safe) to BatchScorer.
type ScorerFunc func(games []int) float64

// ScoreStates implements BatchScorer.
func (f ScorerFunc) ScoreStates(states [][]int, dst []float64) []float64 {
	if cap(dst) < len(states) {
		dst = make([]float64, len(states))
	}
	dst = dst[:len(states)]
	for i, s := range states {
		dst[i] = f(s)
	}
	return dst
}

// Config parameterizes a Cluster.
type Config struct {
	// NumServers is the fleet size.
	NumServers int
	// ShardCount partitions the fleet; <= 0 defaults to 1, clamped to
	// NumServers.
	ShardCount int
	// MaxPerServer caps colocation size; <= 0 defaults to 4.
	MaxPerServer int
	// K is the number of shards sampled per arrival; <= 0 defaults to 2.
	// K >= ShardCount scans every shard (and consumes no randomness, so
	// results are shard-count invariant).
	K int
	// Seed drives shard sampling and steal victim selection.
	Seed int64
	// Scorer predicts the total FPS of a hypothetical server state;
	// required in ModeGreedy.
	Scorer BatchScorer
	// Mode selects greedy (default) or least-loaded placement.
	Mode Mode
	// Gen, when non-nil, reports the serving model's generation; every
	// score-cache key is tagged with it so a hot swap invalidates all
	// shards' memos at once (see sched.GreedyPolicyVersioned).
	Gen func() uint64
	// CacheCap bounds each shard's score cache; <= 0 uses the default.
	CacheCap int

	// StealThreshold is the utilization at which a shard becomes a steal
	// donor; <= 0 disables work stealing entirely.
	StealThreshold float64
	// StealGap is the minimum donor-target utilization gap for a steal
	// plan to start (and to keep running); <= 0 defaults to 0.2.
	StealGap float64
	// StealBatch bounds the sessions per steal plan; <= 0 defaults to 8.
	StealBatch int

	// Metrics and Tracer mirror the sched.OnlineConfig contract: nil-safe
	// and never feeding back into placement decisions.
	Metrics *obs.Registry
	Tracer  *trace.Tracer
	// Flight, when non-nil, receives the dispatch plane's flight-recorder
	// events (escapes, steal plans/moves/aborts, generation swaps). The
	// balancer records via TryRecord only — under ring-lock contention an
	// event is counted dropped rather than stalling every queued arrival.
	Flight *flight.Recorder
}

// Placement describes one admitted session.
type Placement struct {
	Session int
	Server  int // global server id
	Shard   int
	Delta   float64 // predicted total-FPS delta of the chosen placement
	// Seq is the cluster's monotone commit ticket: every admitted session
	// gets the next value in a single total order, whether it was booked by
	// the deterministic single-caller path or by one of many concurrent
	// Callers (where the commit lock IS the sequencer — two lanes admitting
	// onto the same server resolve in ticket order).
	Seq uint64
}

// BatchResult is one arrival's outcome in a coalesced placement batch.
type BatchResult struct {
	Placement
	OK bool // false: no shard in the whole fleet had capacity
}

// BatchTiming is one arrival's placement-decision breadcrumbs, stamped on
// the balancer goroutine for callers that materialize trace spans after the
// fact (the admission pipeline's deferred tracing: three clock reads here
// instead of span bookkeeping on the single-threaded hot loop). Timestamps
// come from the tracer clock (Tracer.Now; all zero with no tracer) and
// exclude steal-plan drainage, which PlaceBatch amortizes across decisions.
type BatchTiming struct {
	// StartNS/EndNS bracket the decision; CommitNS is the instant the
	// winning placement was chosen (probe reduced, commit about to book).
	// CommitNS stays zero when the arrival was rejected.
	StartNS, CommitNS, EndNS int64
	// Cands is the number of shards probed (the whole fleet after an
	// escape); Probes counts the fresh score probes the decision consumed —
	// batched arrivals answered entirely from precomputed scores report 0.
	Cands, Probes int
	// Escape reports that the full-fleet fallback fired.
	Escape bool
}

// Stats are the cluster's lifetime counters (single-threaded, exact).
type Stats struct {
	Placed, Rejected, Removed         int
	Escapes                           int
	StealPlans, StolenSessions        int
	StealAborts                       int
	Active, PeakActive                int
	Scanned, CacheMisses, ScoreProbes int
}

type sessionLoc struct {
	shard, server, game int
}

// stealPlan is a pending bounded steal batch: moves drain one per
// subsequent Place/Remove call, so a batch never blows up one decision's
// latency and arrivals genuinely interleave with it.
type stealPlan struct {
	from, to int
	moves    []victim
}

// Cluster is the sharded dispatch plane. Not safe for concurrent callers:
// one goroutine drives Place/Remove (the fan-out inside is where the
// parallelism lives).
type Cluster struct {
	cfg     Config
	nShards int
	max     int
	k       int
	shards  []*shard
	ranges  [][2]int
	all     []int // 0..nShards-1, the full-fan-out candidate list

	sessions map[int]sessionLoc
	nextSID  int
	loads    []int // sessions per shard
	caps     []int // slot capacity per shard

	sampleRng *rand.Rand
	sampled   []int
	stealSeq  int64
	plan      *stealPlan

	// Batched-placement scratch (PlaceBatch). batchDirty marks shards a
	// commit or steal move has mutated since the batch probe, so their
	// precomputed answers must not be reused. batchPending marks shards
	// whose last batch commit piggybacked a refresh of those answers
	// that is still sitting unread on the shard's reply channel — any
	// other read of that channel MUST collectRefresh first. All are
	// lazily allocated on the first PlaceBatch and reset at the start of
	// each; stale dirty marks written outside a batch are harmless, and
	// PlaceBatch drains every pending refresh before returning so no
	// reply channel ever holds one across calls.
	batchCandBuf  []int
	batchGames    [][]int
	batchResps    [][]shardResp
	batchDirty    []bool
	batchPending  []bool
	batchPendGame [][]int // games the outstanding reply answers, aligned with it

	stealGap   float64
	stealBatch int

	// Commit sequencing for concurrent Callers. mu guards every balancer-
	// side mutation (sessions, loads, occ, stats, steal plan, generation
	// bookkeeping) when Caller handles drive the cluster; the deterministic
	// single-caller methods below do NOT take it (they are documented as
	// one-goroutine-only and must stay byte-identical), so the two driving
	// styles must not be mixed concurrently. occ mirrors per-server
	// occupancy balancer-side so a sequenced commit can revalidate capacity
	// without a shard round trip; commitSeq is the monotone ticket every
	// commit draws (both paths, so a drained pipeline's history is totally
	// ordered either way).
	mu        sync.Mutex
	occ       []int
	commitSeq uint64
	nCallers  int

	met    fleetMetrics
	tr     *trace.Tracer
	flight *flight.Recorder
	stats  Stats

	// lastGenTag/genSeen detect model hot swaps for the flight recorder:
	// the first decision after Gen() changes records a "gen-swap" event.
	lastGenTag uint64
	genSeen    bool

	wg     sync.WaitGroup
	closed bool
}

// New builds the cluster and starts one dispatcher goroutine per shard.
// Callers must Close it.
func New(cfg Config) (*Cluster, error) {
	if cfg.NumServers <= 0 {
		return nil, fmt.Errorf("fleet: needs at least one server")
	}
	if cfg.Mode == ModeGreedy && cfg.Scorer == nil {
		return nil, fmt.Errorf("fleet: ModeGreedy needs a Scorer")
	}
	max := cfg.MaxPerServer
	if max <= 0 {
		max = 4
	}
	shardCount := cfg.ShardCount
	if shardCount <= 0 {
		shardCount = 1
	}
	if shardCount > cfg.NumServers {
		shardCount = cfg.NumServers
	}
	k := cfg.K
	if k <= 0 {
		k = 2
	}
	if k > shardCount {
		k = shardCount
	}
	gap := cfg.StealGap
	if gap <= 0 {
		gap = 0.2
	}
	batch := cfg.StealBatch
	if batch <= 0 {
		batch = 8
	}

	ranges := sim.Partition(cfg.NumServers, shardCount)
	c := &Cluster{
		cfg:        cfg,
		nShards:    shardCount,
		max:        max,
		k:          k,
		ranges:     ranges,
		sessions:   map[int]sessionLoc{},
		loads:      make([]int, shardCount),
		caps:       make([]int, shardCount),
		occ:        make([]int, cfg.NumServers),
		sampleRng:  rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, "fleet-sample", 0))),
		stealGap:   gap,
		stealBatch: batch,
		met:        newFleetMetrics(cfg.Metrics, shardCount),
		tr:         cfg.Tracer,
		flight:     cfg.Flight,
	}
	c.all = make([]int, shardCount)
	c.shards = make([]*shard, shardCount)
	for i, r := range ranges {
		c.all[i] = i
		c.caps[i] = (r[1] - r[0]) * max
		c.shards[i] = newShard(i, r[0], r[1], max, cfg.Mode, cfg.Scorer, cfg.CacheCap)
		c.wg.Add(1)
		go func(sh *shard) {
			defer c.wg.Done()
			sh.run()
		}(c.shards[i])
	}
	return c, nil
}

// Close stops every shard goroutine. The cluster is unusable afterwards.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, sh := range c.shards {
		close(sh.reqs)
	}
	c.wg.Wait()
}

// Known reports whether the cluster's scorer can score game: true unless
// the scorer is a GameSet that lacks it. Safe from any goroutine. The
// admission front end checks it before queueing, so an unknown id never
// reaches a shard goroutine.
func (c *Cluster) Known(game int) bool {
	gs, ok := c.cfg.Scorer.(GameSet)
	return !ok || gs.Known(game)
}

// Stats returns the lifetime counters. Safe to call while concurrent
// Callers drive the cluster (their mutations all hold the commit lock);
// with the single-caller methods it remains exact only from the driving
// goroutine or after a quiesce, as before.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Active reports the number of placed sessions.
func (c *Cluster) Active() int { return c.stats.Active }

// Utilization reports a shard's occupied-slot fraction.
func (c *Cluster) Utilization(shard int) float64 {
	return float64(c.loads[shard]) / float64(c.caps[shard])
}

// Locate reports where a session currently runs (work stealing may have
// moved it since placement).
func (c *Cluster) Locate(sid int) (server int, ok bool) {
	loc, ok := c.sessions[sid]
	if !ok {
		return 0, false
	}
	return loc.server, true
}

// genTag folds the model generation into score-cache keys, read once per
// decision (same contract as sched.GreedyPolicyVersioned). A tag change —
// the serving model was hot-swapped since the last decision — lands a
// "gen-swap" event in the flight recorder, so a dump shows placement events
// on either side of the swap boundary.
func (c *Cluster) genTag() uint64 {
	var tag uint64
	if c.cfg.Gen != nil {
		if g := c.cfg.Gen(); g != 0 {
			tag = sim.Mix64(g)
		}
	}
	if c.genSeen && tag != c.lastGenTag {
		c.flight.TryRecord(flight.Event{Kind: "gen-swap"})
	}
	c.genSeen, c.lastGenTag = true, tag
	return tag
}

// sampleShards picks the candidate shards for one arrival. With k covering
// every shard the fixed full list is returned and no randomness is
// consumed — the property the cross-shard-count invariance tests rely on.
func (c *Cluster) sampleShards() []int {
	if c.k >= c.nShards {
		return c.all
	}
	s := c.sampled[:0]
	for len(s) < c.k {
		d := c.sampleRng.Intn(c.nShards)
		dup := false
		for _, have := range s {
			if have == d {
				dup = true
				break
			}
		}
		if !dup {
			s = append(s, d)
		}
	}
	c.sampled = s
	return s
}

// probe fans one scoring request out to the candidate shards and reduces
// the replies to the best (delta, lowest global server id) placement.
// Replies are collected in candidate order; the reduce is order-
// independent, so goroutine scheduling never changes the answer. Each
// candidate gets a child span under tctx carrying its shard id.
func (c *Cluster) probe(candidates []int, game int, genTag uint64, tctx trace.Ctx) (shardResp, int, bool) {
	for _, id := range candidates {
		c.shards[id].reqs <- shardReq{op: opScore, game: game, genTag: genTag}
	}
	var best shardResp
	bestShard, found := -1, false
	for _, id := range candidates {
		r := <-c.shards[id].resp
		c.stats.ScoreProbes++
		c.stats.Scanned += r.scanned
		c.stats.CacheMisses += r.misses
		sp := tctx.StartSpan("score-shard", trace.Int("shard", id))
		if r.ok {
			sp.End(trace.Int("server", r.server), trace.Float("delta", r.delta),
				trace.Int("states", r.scanned), trace.Int("cache_misses", r.misses))
		} else {
			sp.End(trace.Bool("rejected", true))
		}
		if !r.ok {
			continue
		}
		if !found || r.delta > best.delta || (r.delta == best.delta && r.server < best.server) {
			best, bestShard, found = r, id, true
		}
	}
	return best, bestShard, found
}

// Place admits one arriving session, returning its placement. ok=false
// means no shard in the whole fleet had capacity.
func (c *Cluster) Place(game int) (Placement, bool) {
	return c.placeTimed(game, nil)
}

// placeTimed is Place with optional timing breadcrumbs. With tm non-nil the
// per-arrival "fleet-placement" trace is suppressed — the caller owns the
// trace (an admission span minted upstream) and materializes the span tree
// itself from the stamps — and the decision writes its clock reads and
// probe counts into tm instead. The placement decision is identical either
// way; only the observability plumbing differs.
func (c *Cluster) placeTimed(game int, tm *BatchTiming) (Placement, bool) {
	c.applySteal()
	span := c.met.decision.Start()
	defer span.Stop()
	genTag := c.genTag()
	var tctx trace.Ctx
	if tm == nil {
		tctx = c.tr.StartTrace("fleet-placement", trace.Int("game", game))
	} else {
		*tm = BatchTiming{StartNS: c.tr.Now()}
	}
	probes0 := c.stats.ScoreProbes

	candidates := c.sampleShards()
	best, bestShard, found := c.probe(candidates, game, genTag, tctx)
	nCands := len(candidates)
	if !found && len(candidates) < c.nShards {
		// Escape hatch: every sampled shard rejected (saturated); scan the
		// whole fleet rather than shedding a placeable session.
		c.stats.Escapes++
		c.met.escapes.Inc()
		c.flight.TryRecord(flight.Event{Kind: "escape", Game: game})
		if tm == nil {
			tctx = tctx.SetAttr(trace.Bool("escape", true))
		} else {
			tm.Escape = true
		}
		best, bestShard, found = c.probe(c.all, game, genTag, tctx)
		nCands = c.nShards
	}
	if tm != nil {
		tm.Cands = nCands
		tm.Probes = c.stats.ScoreProbes - probes0
	}
	if !found {
		c.stats.Rejected++
		c.met.rejected.Inc()
		tctx.End(trace.String("outcome", "rejected"))
		if tm != nil {
			tm.EndNS = c.tr.Now()
		}
		return Placement{}, false
	}

	if tm != nil {
		tm.CommitNS = c.tr.Now()
	}
	pl := c.commitPlacement(game, bestShard, best, tctx, 0, nil)
	if tm != nil {
		tm.EndNS = c.tr.Now()
	}
	c.maybePlanSteal(bestShard)
	return pl, true
}

// markDirty flags a shard's precomputed batch answers as stale. Nil-safe:
// before the first PlaceBatch there is nothing to invalidate.
func (c *Cluster) markDirty(shard int) {
	if c.batchDirty != nil {
		c.batchDirty[shard] = true
	}
}

// collectRefresh reads the batch answers an earlier request left on
// shard s's reply channel — either the initial opScoreBatch probe
// (batchResps[s] still nil: the whole game list lands at once) or a
// piggybacked post-commit refresh (a subset of games is patched into the
// existing answers; entries not patched are exactly the ones no
// remaining arrival will read, so the shard counts as clean again). The
// reply was computed shard-side in parallel with the balancer draining
// other arrivals — by the time the shard comes up as a candidate it is
// usually already buffered, so this is a channel read, not a scoring
// round trip. No-op when nothing is pending.
func (c *Cluster) collectRefresh(s int) {
	if c.batchPending == nil || !c.batchPending[s] {
		return
	}
	r := <-c.shards[s].resp
	c.batchPending[s] = false
	if c.batchResps[s] == nil {
		c.batchResps[s] = r.batch
	} else {
		c.met.refreshes.Inc()
		for i, g := range c.batchPendGame[s] {
			if j := lookupIdx(c.batchGames[s], g); j >= 0 {
				c.batchResps[s][j] = r.batch[i]
			}
		}
	}
	c.batchDirty[s] = false
	for _, e := range r.batch {
		c.stats.ScoreProbes++
		c.stats.Scanned += e.scanned
		c.stats.CacheMisses += e.misses
	}
}

// collectAllRefreshes drains every outstanding piggybacked refresh —
// required before any full-fan-out read of the reply channels (escape
// hatch, snapshot) and before PlaceBatch returns.
func (c *Cluster) collectAllRefreshes() {
	if c.batchPending == nil {
		return
	}
	for s := range c.batchPending {
		c.collectRefresh(s)
	}
}

// probeBatched answers one drained arrival's probe from the batch's
// precomputed per-shard answers, re-probing only candidates whose state a
// commit or steal move has dirtied since the batch probe ran. Clean
// answers are still exact — shard state is goroutine-confined and only
// this balancer mutates it, so an unchanged shard's precomputed best IS
// what a fresh probe would return — which is why batched and sequential
// submission place byte-identically.
func (c *Cluster) probeBatched(candidates []int, game int, genTag uint64, tctx trace.Ctx) (shardResp, int, bool) {
	// Install any refreshed answers earlier commits left buffered, then
	// fan re-probes out so still-dirty shards re-score concurrently.
	for _, id := range candidates {
		c.collectRefresh(id)
	}
	for _, id := range candidates {
		if c.batchDirty[id] || lookupIdx(c.batchGames[id], game) < 0 {
			c.shards[id].reqs <- shardReq{op: opScore, game: game, genTag: genTag}
		}
	}
	var best shardResp
	bestShard, found := -1, false
	for _, id := range candidates {
		var r shardResp
		cached := false
		if j := lookupIdx(c.batchGames[id], game); !c.batchDirty[id] && j >= 0 {
			r = c.batchResps[id][j]
			cached = true
		} else {
			r = <-c.shards[id].resp
			c.stats.ScoreProbes++
			c.stats.Scanned += r.scanned
			c.stats.CacheMisses += r.misses
			c.met.reprobes.Inc()
		}
		sp := tctx.StartSpan("score-shard", trace.Int("shard", id), trace.Bool("batched", cached))
		if r.ok {
			sp.End(trace.Int("server", r.server), trace.Float("delta", r.delta))
		} else {
			sp.End(trace.Bool("rejected", true))
		}
		if !r.ok {
			continue
		}
		if !found || r.delta > best.delta || (r.delta == best.delta && r.server < best.server) {
			best, bestShard, found = r, id, true
		}
	}
	return best, bestShard, found
}

// lookupIdx is a linear index scan — candidate game lists are k-small.
func lookupIdx(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// commitPlacement books an admitted session onto its chosen shard/server
// and updates every counter and gauge — the shared tail of Place and
// PlaceBatch. The commit itself is fire-and-forget (channel FIFO orders
// every later op on the shard behind it); when refresh is non-empty the
// commit instead piggybacks a rescore of the batch's games against the
// post-commit state, which the drain collects lazily via collectRefresh.
func (c *Cluster) commitPlacement(game, bestShard int, best shardResp, tctx trace.Ctx, genTag uint64, refresh []int) Placement {
	sid := c.nextSID
	c.nextSID++
	seq := c.commitSeq
	c.commitSeq++
	sh := c.shards[bestShard]
	if len(refresh) > 0 {
		sh.reqs <- shardReq{op: opCommitRefresh, game: game, sid: sid, server: best.server, games: refresh, genTag: genTag}
		c.batchPending[bestShard] = true
		c.batchDirty[bestShard] = true
	} else {
		sh.reqs <- shardReq{op: opCommit, game: game, sid: sid, server: best.server}
		c.markDirty(bestShard)
	}
	c.sessions[sid] = sessionLoc{shard: bestShard, server: best.server, game: game}
	c.loads[bestShard]++
	c.occ[best.server]++
	c.stats.Placed++
	c.stats.Active++
	if c.stats.Active > c.stats.PeakActive {
		c.stats.PeakActive = c.stats.Active
	}
	c.met.placements.Inc()
	c.met.active.Set(float64(c.stats.Active))
	c.met.shardSessions[bestShard].Set(float64(c.loads[bestShard]))
	tctx.End(
		trace.String("outcome", "placed"),
		trace.Int("shard", bestShard),
		trace.Int("server", best.server),
		trace.Int("session", sid),
	)
	return Placement{Session: sid, Server: best.server, Shard: bestShard, Delta: best.delta, Seq: seq}
}

// PlaceBatch admits a coalesced batch of arrivals: dst[i] receives the
// outcome for games[i]. One batched probe per involved shard scores every
// (shard, game) pair of the batch in a single BatchScorer call — this is
// where the compiled forest kernel runs at full 16-wide occupancy instead
// of one underfilled pass per arrival — and the batch then drains in
// arrival order, re-probing only shards dirtied by earlier commits or
// steal moves.
//
// Determinism contract: PlaceBatch(games) produces byte-identical
// placements, session ids, and steal traffic to calling Place(g) once per
// game in order (the golden tests pin this). The sampleRng draw sequence
// is preserved by presampling candidates in arrival order, precomputed
// scores are pure functions of untouched shard state, and dirty shards
// fall back to fresh probes. Only the performance counters (cache misses,
// probe counts) may differ between the two submission styles. The model
// generation is pinned once per batch, so a lifecycle hot swap takes
// effect at the next batch boundary.
func (c *Cluster) PlaceBatch(games []int, dst []BatchResult) []BatchResult {
	return c.PlaceBatchTimed(games, dst, nil)
}

// PlaceBatchTimed is PlaceBatch with per-arrival timing breadcrumbs: when
// times covers the batch (len(times) >= len(games)), times[i] receives the
// clock stamps and probe counts of games[i]'s decision and the fleet's own
// per-arrival traces are suppressed — the caller owns the traces and
// materializes spans from the breadcrumbs off the balancer's critical path
// (see placeTimed). A nil or short times behaves exactly like PlaceBatch.
// Placements are byte-identical between the two forms: timing observes the
// decision, it never participates in it.
func (c *Cluster) PlaceBatchTimed(games []int, dst []BatchResult, times []BatchTiming) []BatchResult {
	if cap(dst) < len(games) {
		dst = make([]BatchResult, len(games))
	}
	dst = dst[:len(games)]
	if len(games) == 0 {
		return dst
	}
	timed := len(times) >= len(games)
	if len(games) == 1 {
		var tm *BatchTiming
		if timed {
			tm = &times[0]
		}
		pl, ok := c.placeTimed(games[0], tm)
		dst[0] = BatchResult{Placement: pl, OK: ok}
		return dst
	}
	c.met.batches.Inc()
	c.met.batchArrivals.Observe(float64(len(games)))
	genTag := c.genTag()

	// Phase 1: presample every arrival's candidate shards in arrival
	// order — exactly the sampleRng draws sequential Place calls would
	// consume, so the two submission styles stay interchangeable.
	kk := c.k
	need := len(games) * kk
	if cap(c.batchCandBuf) < need {
		c.batchCandBuf = make([]int, need)
	}
	cand := c.batchCandBuf[:need]
	for i := range games {
		copy(cand[i*kk:(i+1)*kk], c.sampleShards())
	}

	// Phase 2: group the batch by shard (deduping games per shard) and
	// fan one batched probe out to every involved shard. Each shard
	// gathers all its uncached states across all its games and scores
	// them through ONE kernel pass.
	if c.batchGames == nil {
		c.batchGames = make([][]int, c.nShards)
		c.batchResps = make([][]shardResp, c.nShards)
		c.batchDirty = make([]bool, c.nShards)
		c.batchPending = make([]bool, c.nShards)
		c.batchPendGame = make([][]int, c.nShards)
	}
	for s := range c.batchGames {
		c.batchGames[s] = c.batchGames[s][:0]
		c.batchResps[s] = nil
		c.batchDirty[s] = false
		c.batchPending[s] = false
		c.batchPendGame[s] = c.batchPendGame[s][:0]
	}
	for i, g := range games {
		for _, s := range cand[i*kk : (i+1)*kk] {
			if lookupIdx(c.batchGames[s], g) < 0 {
				c.batchGames[s] = append(c.batchGames[s], g)
			}
		}
	}
	// The probes fan out but are NOT collected here: each shard scores
	// its whole game set through one kernel pass in parallel with the
	// drain below, and collectRefresh installs a shard's answers the
	// first time an arrival actually needs them. The drain starts
	// immediately instead of barriering on the slowest shard.
	var tctx trace.Ctx
	if !timed {
		tctx = c.tr.StartTrace("fleet-batch-probe", trace.Int("arrivals", len(games)))
	}
	span := c.met.batchProbe.Start()
	for s := 0; s < c.nShards; s++ {
		if len(c.batchGames[s]) == 0 {
			continue
		}
		c.shards[s].reqs <- shardReq{op: opScoreBatch, games: c.batchGames[s], genTag: genTag}
		c.batchPending[s] = true
	}
	span.Stop()
	tctx.End()

	// Phase 3: drain arrivals in order. Each iteration mirrors Place
	// exactly — steal drain, probe, escape hatch, commit, steal planning —
	// with precomputed answers standing in for clean-shard probes.
	//
	// In timed mode each arrival's StartNS chains from its predecessor's
	// EndNS (one clock read for the whole batch instead of one per
	// arrival): the drain is sequential, so the previous decision's end IS
	// this decision's start, give or take the few-hundred-ns inter-arrival
	// bookkeeping the score span absorbs.
	var lastNS int64
	if timed {
		lastNS = c.tr.Now()
	}
	for i, g := range games {
		c.applySteal()
		dspan := c.met.decision.Start()
		var atctx trace.Ctx
		var tm *BatchTiming
		if timed {
			tm = &times[i]
			*tm = BatchTiming{StartNS: lastNS}
		} else {
			atctx = c.tr.StartTrace("fleet-placement", trace.Int("game", g), trace.Bool("batched", true))
		}
		probes0 := c.stats.ScoreProbes
		candidates := cand[i*kk : (i+1)*kk]
		best, bestShard, found := c.probeBatched(candidates, g, genTag, atctx)
		nCands := len(candidates)
		if !found && len(candidates) < c.nShards {
			c.stats.Escapes++
			c.met.escapes.Inc()
			c.flight.TryRecord(flight.Event{Kind: "escape", Game: g})
			if timed {
				tm.Escape = true
			} else {
				atctx = atctx.SetAttr(trace.Bool("escape", true))
			}
			// The full fan-out reads every reply channel, so any
			// buffered refresh must be installed first.
			c.collectAllRefreshes()
			best, bestShard, found = c.probe(c.all, g, genTag, atctx)
			nCands = c.nShards
		}
		if timed {
			tm.Cands = nCands
			tm.Probes = c.stats.ScoreProbes - probes0
		}
		if !found {
			c.stats.Rejected++
			c.met.rejected.Inc()
			atctx.End(trace.String("outcome", "rejected"))
			if timed {
				tm.EndNS = c.tr.Now()
				lastNS = tm.EndNS
			}
			dst[i] = BatchResult{}
			dspan.Stop()
			continue
		}
		// Refresh only what the rest of the batch will actually read
		// from this shard: the games of remaining arrivals that drew it
		// as a candidate. Usually that is zero or one game — and when it
		// is zero the commit needs no reply at all.
		refresh := c.batchPendGame[bestShard][:0]
		for j := i + 1; j < len(games); j++ {
			if lookupIdx(cand[j*kk:(j+1)*kk], bestShard) >= 0 && lookupIdx(refresh, games[j]) < 0 {
				refresh = append(refresh, games[j])
			}
		}
		c.batchPendGame[bestShard] = refresh
		if timed {
			tm.CommitNS = c.tr.Now()
		}
		dst[i] = BatchResult{Placement: c.commitPlacement(g, bestShard, best, atctx, genTag, refresh), OK: true}
		if timed {
			tm.EndNS = c.tr.Now()
			lastNS = tm.EndNS
		}
		dspan.Stop()
		c.maybePlanSteal(bestShard)
	}
	// Leave no refresh buffered: the next reader of a shard's reply
	// channel (Remove, Snapshot, a sequential Place) expects it empty.
	c.collectAllRefreshes()
	return dst
}

// Remove departs a session; false when the id is unknown.
func (c *Cluster) Remove(sid int) bool {
	c.applySteal()
	loc, ok := c.sessions[sid]
	if !ok {
		return false
	}
	sh := c.shards[loc.shard]
	sh.reqs <- shardReq{op: opRemove, sid: sid, server: loc.server}
	<-sh.resp
	delete(c.sessions, sid)
	c.markDirty(loc.shard)
	c.loads[loc.shard]--
	c.occ[loc.server]--
	c.stats.Removed++
	c.stats.Active--
	c.met.active.Set(float64(c.stats.Active))
	c.met.shardSessions[loc.shard].Set(float64(c.loads[loc.shard]))
	return true
}

// maybePlanSteal starts a bounded steal batch when the just-committed
// shard crossed the saturation threshold and a meaningfully emptier shard
// exists. Victims are nominated immediately (seeded-deterministically, by
// the donor) and drained one move per subsequent decision.
func (c *Cluster) maybePlanSteal(donor int) {
	if c.cfg.StealThreshold <= 0 || c.plan != nil || c.nShards < 2 {
		return
	}
	du := c.Utilization(donor)
	if du < c.cfg.StealThreshold {
		return
	}
	target := -1
	for i := 0; i < c.nShards; i++ {
		if i == donor {
			continue
		}
		if target < 0 || c.loads[i]*c.caps[target] < c.loads[target]*c.caps[i] {
			target = i
		}
	}
	if target < 0 || du-c.Utilization(target) < c.stealGap {
		return
	}
	n := (c.loads[donor] - c.loads[target]) / 2
	if n > c.stealBatch {
		n = c.stealBatch
	}
	free := c.caps[target] - c.loads[target]
	if n > free {
		n = free
	}
	if n <= 0 {
		return
	}
	seed := sim.DeriveSeed(c.cfg.Seed, "fleet-steal", c.stealSeq)
	c.stealSeq++
	sh := c.shards[donor]
	c.collectRefresh(donor) // the donor just committed; its refresh may be buffered
	sh.reqs <- shardReq{op: opVictims, n: n, seed: seed}
	r := <-sh.resp
	if len(r.victims) == 0 {
		return
	}
	c.plan = &stealPlan{from: donor, to: target, moves: r.victims}
	c.stats.StealPlans++
	c.met.stealPlans.Inc()
	c.flight.TryRecord(flight.Event{Kind: "steal-plan", Shard: donor,
		Detail: fmt.Sprintf("target=%d moves=%d", target, len(r.victims))})
}

// applySteal drains at most one move of the pending steal plan. Each move
// re-validates against live state — the session may have departed or the
// balance may have shifted since the plan was cut — and the plan is
// dropped (never half-applied onto a full shard) the moment it stops
// making sense. A session is committed on the target before it is removed
// from the donor, so no interleaving can orphan it.
func (c *Cluster) applySteal() {
	if c.plan == nil {
		return
	}
	p := c.plan
	for len(p.moves) > 0 {
		m := p.moves[0]
		p.moves = p.moves[1:]
		loc, ok := c.sessions[m.sid]
		if !ok || loc.shard != p.from || loc.server != m.server {
			// Departed or already moved since nomination; skip silently.
			continue
		}
		if c.Utilization(p.from)-c.Utilization(p.to) < c.stealGap {
			// Balance reached (arrivals landed elsewhere, departures
			// drained the donor); the rest of the batch is moot.
			c.plan = nil
			c.stats.StealAborts++
			c.met.stealAborts.Inc()
			c.flight.TryRecord(flight.Event{Kind: "steal-abort", Shard: p.from, Detail: "balance-reached"})
			return
		}
		genTag := c.genTag()
		tctx := c.tr.StartTrace("steal-move",
			trace.Int("session", m.sid),
			trace.Int("from_shard", p.from),
			trace.Int("to_shard", p.to),
		)
		// Both shards' reply channels may hold a piggybacked refresh
		// from a batch drain in progress; install those before reading.
		c.collectRefresh(p.to)
		c.collectRefresh(p.from)
		target := c.shards[p.to]
		target.reqs <- shardReq{op: opScore, game: m.game, genTag: genTag}
		r := <-target.resp
		if !r.ok {
			// Target filled up mid-batch: abort the plan, leave the
			// session untouched on the donor.
			c.plan = nil
			c.stats.StealAborts++
			c.met.stealAborts.Inc()
			c.flight.TryRecord(flight.Event{Kind: "steal-abort", Shard: p.to, Detail: "target-full"})
			tctx.End(trace.String("outcome", "aborted"))
			return
		}
		// Commit on the target FIRST, then remove from the donor: the
		// session exists somewhere at every step. The commit needs no
		// ack — the donor remove below is the move's synchronization.
		target.reqs <- shardReq{op: opCommit, game: m.game, sid: m.sid, server: r.server}
		donor := c.shards[p.from]
		donor.reqs <- shardReq{op: opRemove, sid: m.sid, server: m.server}
		<-donor.resp
		loc.shard, loc.server = p.to, r.server
		c.sessions[m.sid] = loc
		c.markDirty(p.from)
		c.markDirty(p.to)
		c.loads[p.from]--
		c.loads[p.to]++
		c.occ[m.server]--
		c.occ[r.server]++
		c.stats.StolenSessions++
		c.met.stolen.Inc()
		c.met.shardSessions[p.from].Set(float64(c.loads[p.from]))
		c.met.shardSessions[p.to].Set(float64(c.loads[p.to]))
		c.flight.TryRecord(flight.Event{Kind: "steal-move",
			Session: m.sid, Server: r.server, Shard: p.to, Game: m.game})
		tctx.End(trace.String("outcome", "moved"), trace.Int("server", r.server))
		if len(p.moves) == 0 {
			c.plan = nil
		}
		return // one move per decision: bounded latency
	}
	c.plan = nil
}

// StealPending reports whether a steal batch is still draining.
func (c *Cluster) StealPending() bool { return c.plan != nil }

// barrier blocks until every shard has applied everything sent so far —
// commits are fire-and-forget, so direct reads of shard state (tests,
// invariant checks) must quiesce through here first.
func (c *Cluster) barrier() {
	c.collectAllRefreshes()
	for _, sh := range c.shards {
		sh.reqs <- shardReq{op: opBarrier}
		<-sh.resp
	}
}

// Snapshot assembles the global server contents (sorted multisets; nil
// for idle servers), for verification and tests.
func (c *Cluster) Snapshot() [][]int {
	c.collectAllRefreshes() // defensive: reply channels must be empty
	out := make([][]int, 0, c.cfg.NumServers)
	for _, sh := range c.shards {
		sh.reqs <- shardReq{op: opSnapshot}
		r := <-sh.resp
		out = append(out, r.snap...)
	}
	return out
}
