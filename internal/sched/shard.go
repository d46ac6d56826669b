// Shard runtime: the one execution path for a window's node episodes.
//
// The nodes are partitioned round-robin into S shards (Config.Shards), each
// owning a colocate.Scratch. Every scheduling window, the coordinator hands
// each shard its busy nodes; shards 1..S-1 run on persistent goroutines
// while the coordinator runs shard 0 itself, so S = 1 is a plain serial loop
// with no goroutine at all. A shard runs its nodes' episodes in ascending
// node order and folds each one straight away; every fold touches only
// shard-owned node and job state.
//
// At the window boundary the coordinator imposes a deterministic barrier:
// per-shard telemetry roll-ups merge in fixed shard order (order-insensitive
// by construction, see cluster.WindowStats), and the energy ledger,
// lifecycle machine, autoscaler verdicts, and pending-job placement all run
// serially over the merged snapshot in global node order. Sharding therefore
// changes where episode work executes, never what is computed: results are
// byte-identical for any shard count, which the golden tests pin.
package sched

import (
	"sync"
	"time"

	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/colocate"
	"github.com/approx-sched/pliant/internal/obs"
	"github.com/approx-sched/pliant/internal/sim"
)

// shardGroup coordinates the shards of one run.
type shardGroup struct {
	s      *run
	shards []*shardRT
	wg     sync.WaitGroup

	// winStart is the current window's start in seconds, set by the
	// coordinator before the shards run.
	winStart float64

	// prof is the run's wall-clock profiler (nil with obs off). Shards
	// charge their own episode time concurrently; barrier waits are charged
	// by the coordinator after the merge. Wall-clock numbers never feed
	// back into simulation state.
	prof *obs.Profiler
}

// shardRT is one shard: a partition of the cluster's nodes, run by the
// coordinator (shard 0) or by its own goroutine (every other shard).
type shardRT struct {
	g       *shardGroup
	id      int
	scratch *colocate.Scratch

	// Per-window request and outputs. busy is set by the coordinator
	// before the window starts; ws accumulates the shard's fold roll-up and
	// is read by the coordinator after the barrier.
	busy []int
	ws   cluster.WindowStats

	// busyNs is the shard's wall time running this window's episodes,
	// read by the coordinator after the barrier (ordered by the WaitGroup).
	// Only maintained when profiling.
	busyNs int64

	req chan struct{} // window requests; closed on shutdown (nil for shard 0)
}

// newShardGroup partitions the run's nodes into shards (node i belongs to
// shard i mod shards) and starts one goroutine per shard after the first.
func newShardGroup(s *run, shards int) *shardGroup {
	g := &shardGroup{s: s}
	if s.cfg.Obs != nil {
		g.prof = s.cfg.Obs.Profile
	}
	for i := 0; i < shards; i++ {
		sh := &shardRT{g: g, id: i, scratch: &colocate.Scratch{}}
		g.shards = append(g.shards, sh)
		if i > 0 {
			sh.req = make(chan struct{})
			go sh.loop()
		}
	}
	return g
}

// close shuts the shard goroutines down and returns once they have left
// their loops. The group must not be advanced afterwards.
func (g *shardGroup) close() {
	others := g.shards[1:]
	g.wg.Add(len(others))
	for _, sh := range others {
		close(sh.req)
	}
	g.wg.Wait()
}

// advance runs the window ending at now on every shard concurrently and
// merges the per-shard roll-ups in fixed shard order. busyIdx lists the
// occupied nodes in ascending global order; episode outcomes land in the
// run's results slice (disjoint per-node slots), and per-node folds happen
// inside the owning shard. Callers must scan results for episode errors
// after the merge.
func (g *shardGroup) advance(now sim.Time, busyIdx []int) cluster.WindowStats {
	g.winStart = now.Seconds() - g.s.cfg.Epoch.Seconds()
	for _, sh := range g.shards {
		sh.busy = sh.busy[:0]
	}
	for _, i := range busyIdx {
		sh := g.shards[i%len(g.shards)]
		sh.busy = append(sh.busy, i)
	}
	var t0 time.Time
	if g.prof != nil {
		t0 = time.Now() //pliant:allow wallclock — profiler measures the real barrier span for obs; never feeds sim state
	}
	others := g.shards[1:]
	g.wg.Add(len(others))
	for _, sh := range others {
		sh.req <- struct{}{}
	}
	g.shards[0].window()
	g.wg.Wait()
	if g.prof != nil {
		// The barrier spans the slowest shard; every other shard's idle
		// share of that span is its barrier wait — the imbalance measure.
		//pliant:allow wallclock — closes the profiler span opened above; obs-only measurement
		span := time.Since(t0).Nanoseconds()
		for _, sh := range g.shards {
			g.prof.AddBarrierWait(sh.id, span-sh.busyNs)
		}
	}

	var ws cluster.WindowStats
	for _, sh := range g.shards {
		ws.Merge(sh.ws)
	}
	return ws
}

// loop is a shard goroutine: one window per request, then one final Done
// for close.
func (sh *shardRT) loop() {
	for range sh.req {
		sh.window()
		sh.g.wg.Done()
	}
	sh.g.wg.Done()
}

// window runs and folds every owned busy node's episode in ascending node
// order. Episode errors are left in the results slot for the coordinator's
// in-node-order scan.
func (sh *shardRT) window() {
	prof := sh.g.prof
	var t0 time.Time
	if prof != nil {
		t0 = time.Now() //pliant:allow wallclock — profiler measures real shard-window runtime for obs; never feeds sim state
	}
	sh.ws = cluster.WindowStats{}
	s, winStart := sh.g.s, sh.g.winStart
	for _, i := range sh.busy {
		s.results[i] = s.runEpisode(i, winStart, sh.scratch)
		if ep := &s.results[i]; ep.err == nil {
			s.foldEpisode(i, ep, winStart, &sh.ws)
		}
	}
	if prof != nil {
		//pliant:allow wallclock — closes the profiler span opened above; obs-only measurement
		sh.busyNs = time.Since(t0).Nanoseconds()
		prof.AddEpisode(sh.id, len(sh.busy), sh.busyNs)
	}
}
