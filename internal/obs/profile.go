package obs

// Profiler is the wall-clock channel: where the virtual-time tracer answers
// "what did the scheduler decide", the profiler answers "where did the real
// CPU time go" — per-shard episode runtime and merge-barrier waits, the
// numbers that make a sharded run's (non-)speedup diagnosable. Wall time is
// non-deterministic by nature, so nothing here feeds the tracer, the metrics
// registry, or any simulation decision: golden bytes stay pinned while the
// profile varies run to run.
//
// Writers are partitioned: shard goroutines call AddEpisode on their own
// slot concurrently; the coordinator calls AddBarrierWait serially at the
// barrier. No locks, no allocation after Ensure.
type Profiler struct {
	shards []ShardProfile
}

// ShardProfile is one shard's wall-clock account. Shard 0 is the shard the
// coordinator runs itself; a one-shard run has only that one.
type ShardProfile struct {
	// Shard is the shard index.
	Shard int
	// Windows counts scheduling windows the shard advanced through.
	Windows int
	// Episodes counts node-window episodes the shard executed.
	Episodes int
	// EpisodeNs is wall nanoseconds spent running (and folding) episodes.
	EpisodeNs int64
	// BarrierWaitNs is wall nanoseconds the shard sat idle at the window
	// merge barrier waiting for the slowest shard — the direct measure of
	// shard imbalance, and the cost pipelining would reclaim.
	BarrierWaitNs int64
}

// BarrierWaitFrac is the shard's idle share of its total wall time — 0 for a
// perfectly balanced shard, approaching 1 for one that only ever waits.
func (p ShardProfile) BarrierWaitFrac() float64 {
	total := p.EpisodeNs + p.BarrierWaitNs
	if total <= 0 {
		return 0
	}
	return float64(p.BarrierWaitNs) / float64(total)
}

// Ensure sizes the profiler for n shards (idempotent).
func (p *Profiler) Ensure(n int) {
	for len(p.shards) < n {
		p.shards = append(p.shards, ShardProfile{Shard: len(p.shards)})
	}
}

// AddEpisode charges wall nanoseconds of episode work (episodes ran within
// it) to a shard. Safe to call concurrently from distinct shards.
func (p *Profiler) AddEpisode(shard, episodes int, ns int64) {
	s := &p.shards[shard]
	s.Windows++
	s.Episodes += episodes
	s.EpisodeNs += ns
}

// AddBarrierWait charges wall nanoseconds of barrier idling to a shard.
// Coordinator-only (serial).
func (p *Profiler) AddBarrierWait(shard int, ns int64) {
	if ns > 0 {
		p.shards[shard].BarrierWaitNs += ns
	}
}

// Shards returns a copy of the per-shard accounts.
func (p *Profiler) Shards() []ShardProfile {
	return append([]ShardProfile(nil), p.shards...)
}
