package shard

// This file is the TOPOLOGY layer of the router: an immutable,
// epoch-versioned snapshot of the shard fleet, swapped atomically on
// every split, merge and rebalance, plus every observability read
// served from it.
//
// The snapshot is the concurrency keystone of the three-layer design.
// Readers (TopK, QueryBatch, Count, Boundaries, NumShards, Stats,
// String, DropCache) pin the current snapshot with one atomic load and
// never touch the topology lock — so no read ever contends with a
// lifecycle writer, and a lifecycle writer never waits for in-flight
// fan-outs to drain. Updates still take the topology lock in read mode
// (an update applied to a shard that a concurrent re-partition just
// retired would be silently lost), and lifecycle passes take it in
// write mode; see Router.mu.
//
// Consistency: a read is linearized at the moment it pins the
// snapshot. A split or merge that retires a shard mid-read is
// invisible to that read — the retired shard is still a complete,
// self-consistent machine holding exactly the points it held at
// publish time, and per-shard mutexes keep each machine's internal
// state (including the buffer pool's LRU lists, which queries mutate)
// serialized between the pinned reader and anything else touching it.

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"repro/internal/em"
	"repro/internal/point"
)

// topology is one immutable snapshot of the fleet: the shard slice
// (cut positions embedded in it), the epoch that orders snapshots, and
// the transfer history of disks retired by the re-partitions that led
// here. Fields are never mutated after publish; lifecycle passes build
// a fresh value and swap the router's pointer.
type topology struct {
	// epoch increments at every publish. Surfaced by Router.Epoch for
	// operators (topkd exports it as a metric) and tests.
	epoch int64
	// shards is the contiguous cover of the real line, ascending.
	shards []*shard
	// retired accumulates the transfer counters of disks discarded by
	// splits, merges and rebalances up to this snapshot, so aggregate
	// Stats never lose history. Space gauges are stripped at retire
	// time (a discarded disk's blocks die with it).
	retired em.Stats
}

// locate returns the index of the shard covering x.
//
// The binary search is hand-rolled with sort.Search's exact
// semantics (smallest i with the predicate true): sort.Search takes
// the predicate as a closure, and a closure is a static allocation
// site the //topk:nomalloc contract bans — locate runs on every
// routed read.
//
//topk:nomalloc
func (t *topology) locate(x float64) int {
	// First shard with hi > x; lows are contiguous so this is the cover.
	// x = +Inf matches no half-open range and is clamped to the last
	// shard (the same defensive treatment a single Index gives it).
	lo, hi := 0, len(t.shards)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x < t.shards[mid].hi {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(t.shards) {
		lo--
	}
	return lo
}

// publish installs a new snapshot built from the given shard slice and
// retired history. Callers hold mu in write mode (or own the router
// exclusively, at construction time).
func (r *Router) publish(shards []*shard, retired em.Stats) {
	var epoch int64 = 1
	if old := r.topo.Load(); old != nil {
		epoch = old.epoch + 1
	}
	r.topo.Store(&topology{epoch: epoch, shards: shards, retired: retired})
}

// snapshot pins the current topology. The returned value is immutable;
// per-shard mutexes still guard each shard's machine.
//
//topk:nomalloc
func (r *Router) snapshot() *topology { return r.topo.Load() }

// Epoch returns the current topology epoch — it increments on every
// snapshot publish (splits, merges, rebalances, stats resets).
func (r *Router) Epoch() int64 { return r.snapshot().epoch }

// NumShards returns the current shard count. Served from the snapshot:
// never blocks, never contends with writers.
func (r *Router) NumShards() int { return len(r.snapshot().shards) }

// Boundaries returns the current cut positions (len NumShards−1),
// ascending, from the current snapshot. Tests use it to craft
// boundary-straddling queries.
func (r *Router) Boundaries() []float64 {
	t := r.snapshot()
	cuts := make([]float64, 0, len(t.shards)-1)
	for _, s := range t.shards[1:] {
		cuts = append(cuts, s.lo)
	}
	return cuts
}

// partition cuts sorted (by X) points into up to want contiguous
// shards of near-equal size. Cut positions must fall strictly between
// distinct X values, so fewer shards may result when points repeat a
// prefix... positions are distinct by assumption, but defensively any
// zero-width range is merged left.
func partition(opt Options, sorted []point.P, want int) []*shard {
	if want < 1 {
		want = 1
	}
	if want > len(sorted) {
		want = len(sorted)
	}
	if want <= 1 {
		return []*shard{newShard(opt, opt.diskFor(1), math.Inf(-1), math.Inf(1), sorted)}
	}
	disk := opt.diskFor(want)
	var out []*shard
	lo := math.Inf(-1)
	start := 0
	for i := 0; i < want; i++ {
		end := (i + 1) * len(sorted) / want
		if i == want-1 {
			end = len(sorted)
		}
		if end <= start {
			continue
		}
		hi := math.Inf(1)
		if end < len(sorted) {
			hi = sorted[end].X
			// Distinct positions guarantee sorted[end-1].X < hi; if the
			// chunk boundary repeats a position, extend the chunk.
			for end < len(sorted) && sorted[end-1].X >= hi {
				end++
				if end < len(sorted) {
					hi = sorted[end].X
				} else {
					hi = math.Inf(1)
				}
			}
		}
		out = append(out, newShard(opt, disk, lo, hi, sorted[start:end]))
		lo = hi
		start = end
		if end == len(sorted) {
			break
		}
	}
	return out
}

func addStats(a, b em.Stats) em.Stats {
	return em.Stats{
		Reads:      a.Reads + b.Reads,
		Writes:     a.Writes + b.Writes,
		Allocs:     a.Allocs + b.Allocs,
		Frees:      a.Frees + b.Frees,
		BlocksLive: a.BlocksLive + b.BlocksLive,
		BlocksPeak: a.BlocksPeak + b.BlocksPeak,
	}
}

// transfers strips the space gauges from a discarded disk's meter,
// leaving the form in which it may join the retired history: the
// gauges describe blocks that cease to exist with the disk, so
// keeping them would double-count the fleet footprint against the
// rebuilt shard's fresh disk.
func transfers(st em.Stats) em.Stats {
	st.BlocksLive, st.BlocksPeak = 0, 0
	return st
}

// Stats aggregates the I/O meters of every shard disk in the current
// snapshot plus the transfer counters of disks retired by splits,
// merges and rebalances (retired space gauges are stripped at retire
// time — those blocks die with the disk). BlocksLive is the fleet-wide
// live total; BlocksPeak is the high-water mark of that fleet total as
// observed at Stats calls and topology changes — a total some instant
// actually held, not a sum of per-shard peaks from different instants.
//
// Served from the snapshot: Stats takes no topology lock and never
// contends with updates or lifecycle passes (each shard's mutex is
// still taken briefly, since queries mutate the meters). The only
// operation it must not interleave with is ResetStats — the one path
// that moves counters backward — which statsMu serializes, preserving
// the pre-refactor guarantee that a report never mixes old retired
// history with half-reset meters; concurrent Stats calls share the
// lock.
func (r *Router) Stats() em.Stats {
	r.statsMu.RLock()
	defer r.statsMu.RUnlock()
	t := r.snapshot()
	out := t.retired
	for _, s := range t.shards {
		out = addStats(out, s.meter())
	}
	// Monotone-clamp the transfer counters (see the Router field
	// docs): trailing I/Os charged to retired disks by pinned readers
	// must never make a later report tick backward.
	out.Reads = monotone(&r.repReads, out.Reads)
	out.Writes = monotone(&r.repWrites, out.Writes)
	out.Allocs = monotone(&r.repAllocs, out.Allocs)
	out.Frees = monotone(&r.repFrees, out.Frees)
	out.BlocksPeak = r.observePeak(out.BlocksLive)
	return out
}

// monotone folds v into the reported-value floor and returns the
// floor: the maximum of v and everything reported before.
func monotone(floor *atomic.Int64, v int64) int64 {
	for {
		cur := floor.Load()
		if v <= cur {
			return cur
		}
		if floor.CompareAndSwap(cur, v) {
			return v
		}
	}
}

// ResetStats zeroes every shard's read/write counters and drops the
// retired-meter history (space gauges are kept, matching em). It
// publishes a fresh snapshot with an empty retired history, so it
// takes the topology write lock.
func (r *Router) ResetStats() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	t := r.snapshot()
	for _, s := range t.shards {
		s.mu.Lock()
		s.d.ResetMeter()
		s.mu.Unlock()
	}
	r.repReads.Store(0)
	r.repWrites.Store(0)
	r.repAllocs.Store(0)
	r.repFrees.Store(0)
	r.publish(t.shards, em.Stats{})
}

// DropCache evicts every shard's buffer pool so the next operations
// run cold. Unlike the observability reads it is an administrative
// mutation whose point is to leave the CURRENT fleet cold, so it
// takes the topology read lock: a concurrent lifecycle pass could
// otherwise swap in rebuilt shards between the snapshot pin and the
// eviction loop, leaving their pools warm and a "cold" benchmark
// measuring cache hits.
func (r *Router) DropCache() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, s := range r.snapshot().shards {
		s.mu.Lock()
		s.d.DropCache()
		s.mu.Unlock()
	}
}

// observeFleetPeak samples the fleet-wide live-block total of the
// current snapshot into the peak watermark. Called after every
// topology change; snapshot readers may be querying the shards
// concurrently, so each meter is read under its shard's mutex.
func (r *Router) observeFleetPeak() {
	var live int64
	for _, s := range r.snapshot().shards {
		live += s.meter().BlocksLive
	}
	r.observePeak(live)
}

// observePeak folds one observation of the fleet live total into the
// peak watermark and returns the watermark.
func (r *Router) observePeak(live int64) int64 {
	return monotone(&r.peak, live)
}

// String summarizes the router and its shards, from the current
// snapshot.
func (r *Router) String() string {
	t := r.snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "shard.Router{n=%d, epoch=%d, shards=%d", r.n.Load(), t.epoch, len(t.shards))
	for i, s := range t.shards {
		fmt.Fprintf(&b, ", s%d[%g,%g)=%d", i, s.lo, s.hi, s.size())
	}
	b.WriteString("}")
	return b.String()
}
