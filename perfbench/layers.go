package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"time"

	topk "repro"
	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/point"
	"repro/internal/polylog"
	"repro/internal/pst"
)

// counters are the program-side counters read around a phase.
type counters struct {
	splits, merges, epoch int64
	batch                 topk.BatcherStats
	failovers             int64
}

func readCounters(sys *system) counters {
	var c counters
	for _, sh := range sys.sharded {
		c.splits += sh.Splits()
		c.merges += sh.Merges()
		c.epoch += sh.Epoch()
	}
	if sys.batched != nil {
		c.batch = sys.batched.BatcherStats()
	}
	if sys.cluster != nil {
		c.failovers = sys.cluster.ReadFailovers()
	}
	return c
}

// runtimeSample is the allocation and CPU state read around a phase.
type runtimeSample struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// tracedRun measures the per-layer metrics in three phases of d/3:
//
//	A: the workload's own load, untraced (closed loop with every
//	   client; the open loop on the fleet) — runtime and batcher
//	   counters, generator lateness;
//	B: one client, closed loop, untraced — the baseline of
//	   trace.overhead;
//	C: one client, closed loop, traced — every span metric.
//
// Then it builds its own core, polylog and pst machines from one
// shard's points and times their calls directly.
func tracedRun(sp spec, o options, in inputs, sys *system, tr *tracer, m meter, d time.Duration, rep *report) error {
	nc := clients()
	phase := d / 3
	c0 := readCounters(sys)

	r0 := readRuntime()
	var aOps int64
	genLate := 0.0
	if sp.members > 0 {
		ft := sys.target.(*fleetTarget)
		ol := openLoop(ft, drawQueries(in.owners[0], int(o.rate*phase.Seconds())+1), o.rate, nc, phase)
		rep.ops.merge(ol.tally)
		if err := checkGenerator(ol, rep); err != nil {
			return err
		}
		aOps = int64(len(ol.samples))
		genLate = quantile(ol.genLate, 0.99)
	} else {
		a := closedLoop(sys.target, opStreams(in.owners[:nc]), phase)
		rep.ops.merge(a.tally)
		aOps = int64(len(a.samples))
	}
	r1 := readRuntime()
	c1 := readCounters(sys)

	b := closedLoop(sys.target, opStreams(in.owners[:1]), phase)
	rep.ops.merge(b.tally)

	var respBytes, responses int
	if ft, ok := sys.target.(*fleetTarget); ok {
		ft.respBytes = func(n int) { respBytes += n; responses++ }
		defer func() { ft.respBytes = nil }()
	}
	tr.reset()
	tr.on.Store(true)
	c := closedLoop(tracedClient{sys.target, tr}, opStreams(in.owners[:1]), phase)
	tr.on.Store(false)
	rep.ops.merge(c.tally)
	c2 := readCounters(sys)
	rep.note("traced phases: A %d ops (%d clients), B %.0f ops/s untraced, C %.0f ops/s traced (1 client)", aOps, nc, b.opsPerSec(), c.opsPerSec())

	// serve and cluster: the fleet's spans.
	gwTopK := tr.named("gateway.store", "topk")
	returned := 0
	for _, s := range gwTopK {
		returned += s.n
	}
	fetched := 0
	for _, s := range tr.named("member.store", "topk") {
		fetched += s.n
	}
	rpcs := tr.named("cluster.rpc", "/v1/topk")
	rep.add("serve.gateway_us_p50", quantile(durations(tr.named("gateway.handler", "/v1/topk")), 0.5), "us")
	rep.add("serve.gateway_self_us_p50", quantile(tr.selfTimes("gateway.handler", "/v1/topk"), 0.5), "us")
	rep.add("serve.member_self_us_p50", quantile(tr.selfTimes("member.handler", "/v1/topk"), 0.5), "us")
	rep.add("serve.resp_bytes_per_query", ratio(float64(respBytes), float64(responses)), "bytes")
	rep.add("cluster.rpcs_per_query", ratio(float64(len(rpcs)), float64(len(gwTopK))), "count")
	rep.add("cluster.fanout_us_p50", quantile(durations(gwTopK), 0.5), "us")
	rpcDur := durations(rpcs)
	rep.add("cluster.rpc_us_p50", quantile(rpcDur, 0.5), "us")
	rep.add("cluster.rpc_us_p99", quantile(rpcDur, 0.99), "us")
	rep.add("cluster.fetched_per_returned", ratio(float64(fetched), float64(returned)), "ratio")
	rep.add("cluster.failovers", float64(c2.failovers-c0.failovers), "count")

	// shard: the Sharded calls (the members' on the fleet).
	shardName := "shard"
	if sp.members > 0 {
		shardName = "member.store"
	}
	topks := tr.named(shardName, "topk")
	touched := 0
	for _, s := range topks {
		touched += s.shards
	}
	var updates []time.Duration
	for _, op := range []string{"insert", "delete", "apply"} {
		updates = append(updates, durations(tr.named(shardName, op))...)
	}
	topkDur := durations(topks)
	rep.add("shard.topk_us_p50", quantile(topkDur, 0.5), "us")
	rep.add("shard.topk_us_p99", quantile(topkDur, 0.99), "us")
	rep.add("shard.shards_per_query", ratio(float64(touched), float64(len(topks))), "count")
	rep.add("shard.update_us_p50", quantile(updates, 0.5), "us")
	rep.add("shard.update_us_p99", quantile(updates, 0.99), "us")
	rep.add("shard.splits", float64(c2.splits-c0.splits), "count")
	rep.add("shard.merges", float64(c2.merges-c0.merges), "count")
	rep.add("shard.epoch_changes", float64(c2.epoch-c0.epoch), "count")

	if err := coreLayer(sp, o, in, sys, rep); err != nil {
		return err
	}

	// em: the metered pass's block transfers.
	rep.add("em.reads_per_query", ratio(float64(m.qReads), float64(m.queries)), "blocks/op")
	rep.add("em.reads_per_update", ratio(float64(m.uReads), float64(m.updates)), "blocks/op")
	rep.add("em.writes_per_update", ratio(float64(m.uWrites), float64(m.updates)), "blocks/op")
	rep.add("em.blocks_live", float64(m.blocksLive), "blocks")

	// ingest: the batcher's counters over phase A, self time from C.
	ops, flushes := c1.batch.Ops-c0.batch.Ops, c1.batch.Flushes-c0.batch.Flushes
	rep.add("ingest.group_size_mean", ratio(float64(ops), float64(flushes)), "ops")
	rep.add("ingest.flushes_per_op", ratio(float64(flushes), float64(ops)), "ratio")
	var ingestSelf []time.Duration
	if sys.batched != nil {
		for _, op := range []string{"insert", "delete"} {
			ingestSelf = append(ingestSelf, tr.selfTimes("client", op)...)
		}
	}
	rep.add("ingest.self_us_p50", quantile(ingestSelf, 0.5), "us")

	rep.add("runtime.allocs_per_op", ratio(float64(r1.mallocs-r0.mallocs), float64(aOps)), "allocs")
	rep.add("runtime.bytes_per_op", ratio(float64(r1.bytes-r0.bytes), float64(aOps)), "bytes")
	rep.add("runtime.gc_cpu_fraction", ratio(r1.gcCPU-r0.gcCPU, r1.allCPU-r0.allCPU), "fraction")
	rep.add("gen.late_us_p99", genLate, "us")
	rep.add("trace.overhead", ratio(b.opsPerSec(), c.opsPerSec()), "ratio")
	return nil
}

// tracedClient opens the root "client" span around every op.
type tracedClient struct {
	t  doer
	tr *tracer
}

func (c tracedClient) do(o op) ([]topk.Result, error) {
	id := c.tr.begin("client", o.kind.String(), "client", "")
	res, err := c.t.do(o)
	c.tr.finish(id, "client", len(res), 0)
	return res, err
}

// coreQueries and coreUpdates size the direct core measurements.
const (
	coreQueries = 1000
	coreUpdates = 500
)

// coreLayer builds the benchmark's own machines from the points of one
// shard (the first shard of the local store, or of member 0), with the
// options topk.Config maps to, and times core.Index.Query,
// polylog.SelectApprox, pst.Report3Sided, core Insert/Delete and the
// core bulk load directly.
func coreLayer(sp spec, o options, in inputs, sys *system, rep *report) error {
	src := in.pts
	if sp.members > 0 {
		src = byScore(in.pts)[:len(in.pts)/sp.members]
	}
	top := xMax
	if bounds := sys.sharded[0].Boundaries(); len(bounds) > 0 {
		top = bounds[0]
	}
	var pts []point.P
	for _, p := range src {
		if p.X < top {
			pts = append(pts, point.P{X: p.X, Score: p.Score})
		}
	}
	if len(pts) == 0 {
		return fmt.Errorf("core layer: first shard is empty")
	}
	cfg := config(sp.framesPerShard, sp.shards)
	disk := em.Config{B: cfg.BlockWords, M: cfg.MemoryWords / sp.shards}
	opt := core.Options{
		Regime:         core.RegimePolylog,
		PST:            pst.Options{Phi: cfg.Phi},
		PolylogF:       cfg.PolylogF,
		PolylogLeafCap: cfg.PolylogLeafCap,
	}

	start := time.Now()
	ix := core.Bulk(em.NewDisk(disk), opt, pts)
	bulk := time.Since(start)
	poly := polylog.Bulk(em.NewDisk(disk), polylog.Options{
		L: ix.KThreshold(), N: ix.N, F: opt.PolylogF, LeafCap: opt.PolylogLeafCap,
	}, pts)
	tree := pst.Bulk(em.NewDisk(disk), opt.PST, pts)

	qs := shardQueries(o.seed, 0, top, coreQueries)
	for _, q := range qs { // warm the pools
		ix.Query(q.x1, q.x2, q.k)
	}
	queryLat := make([]time.Duration, 0, len(qs))
	before := readRuntime()
	for _, q := range qs {
		s := time.Now()
		ix.Query(q.x1, q.x2, q.k)
		queryLat = append(queryLat, time.Since(s))
	}
	after := readRuntime()

	var selectLat, reportLat []time.Duration
	reported, wanted := 0, 0
	for _, q := range qs {
		s := time.Now()
		tau, ok := poly.SelectApprox(q.x1, q.x2, q.k)
		selectLat = append(selectLat, time.Since(s))
		if !ok {
			continue
		}
		s = time.Now()
		out := tree.Report3Sided(q.x1, q.x2, tau)
		reportLat = append(reportLat, time.Since(s))
		reported += len(out)
		wanted += q.k
	}

	// Updates: fresh points inside the shard, inserted then deleted.
	fresh := freshPoints(o.seed, pts, top, coreUpdates)
	var insLat, delLat []time.Duration
	for _, p := range fresh {
		s := time.Now()
		if err := ix.Insert(p); err != nil {
			return fmt.Errorf("core layer: insert %v: %w", p, err)
		}
		insLat = append(insLat, time.Since(s))
	}
	for _, p := range fresh {
		s := time.Now()
		if !ix.Delete(p) {
			return fmt.Errorf("core layer: delete %v: not found", p)
		}
		delLat = append(delLat, time.Since(s))
	}

	n := float64(len(qs))
	rep.add("core.query_us_p50", quantile(queryLat, 0.5), "us")
	rep.add("core.select_us_p50", quantile(selectLat, 0.5), "us")
	rep.add("core.report_us_p50", quantile(reportLat, 0.5), "us")
	rep.add("core.candidates_per_result", ratio(float64(reported), float64(wanted)), "ratio")
	rep.add("core.allocs_per_query", float64(after.mallocs-before.mallocs)/n, "allocs")
	rep.add("core.bytes_per_query", float64(after.bytes-before.bytes)/n, "bytes")
	rep.add("core.insert_us_p50", quantile(insLat, 0.5), "us")
	rep.add("core.delete_us_p50", quantile(delLat, 0.5), "us")
	rep.add("core.bulk_s", bulk.Seconds(), "s")
	return nil
}

// freshPoints draws count points with x in [0, top) whose positions
// and scores are not in pts.
func freshPoints(seed uint64, pts []point.P, top float64, count int) []point.P {
	rng := rand.New(rand.NewPCG(seed, 0xf5e))
	usedX := make(map[float64]bool, len(pts))
	usedS := make(map[float64]bool, len(pts))
	for _, p := range pts {
		usedX[p.X], usedS[p.Score] = true, true
	}
	out := make([]point.P, 0, count)
	for len(out) < count {
		p := point.P{X: rng.Float64() * top, Score: rng.Float64()}
		if !usedX[p.X] && !usedS[p.Score] {
			usedX[p.X], usedS[p.Score] = true, true
			out = append(out, p)
		}
	}
	return out
}
