// Package serve is the HTTP/JSON face of the serving stack, factored
// out of cmd/topkd so every process shape can mount it: topkd serving
// a local Store, topkd in -gateway mode serving a topk.Cluster, the
// in-process member fleets topkbench -exp e18 and the cluster tests
// boot over httptest.
//
// Handlers are written purely against the topk.Store interface, so the
// backend is the caller's choice; backend-specific introspection
// (shard counts, lifecycle counters, topology epoch) is probed through
// optional interfaces, all in one place (collect) that both /v1/stats
// and /v1/metrics render. Every route lives under /v1.
//
// Responses are internal/wire's structs, the same ones the cluster
// client decodes. Errors are structured: {"error":{"code":
// "duplicate_position","message":"..."}}, with a store error's code and
// status taken from wire's sentinel table (duplicate_position and
// duplicate_score map to 409, invalid_point to 400, node_down to 503),
// malformed requests a 400 bad_request, and out-of-band member inserts
// a 400 out_of_range.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"

	topk "repro"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Options configures the handler tree beyond the Store itself.
type Options struct {
	// Lo and Hi, when not both zero, declare the score band this
	// process owns as a cluster member: [Lo, Hi), with ±Inf open ends.
	// The band is served under GET /v1/range for gateway discovery, and
	// inserts whose score falls outside it are rejected with a
	// structured 400 (code out_of_range) — a misrouted write must fail
	// loudly rather than silently violate the cluster's partitioning.
	// The zero value means "unbounded": no /v1/range band, no
	// enforcement (the band (-Inf, +Inf) behaves identically).
	Lo, Hi float64

	// Obs is the telemetry state the handler tree records into —
	// latency histograms, traces, request logs. Nil gets a default
	// Telemetry (discard logger, header-only tracing), so telemetry is
	// always on; cmd/topkd supplies one built from its flags.
	Obs *obs.Telemetry

	// AsyncAck switches /v1/insert and /v1/delete to asynchronous
	// acknowledgement: the write is enqueued into the store's batcher
	// and answered immediately with 202 Accepted plus an outcome ID the
	// client can poll at GET /v1/outcome/{id}. Requires the Store to
	// expose the submit surface (topk.Batched does); ignored otherwise,
	// so a misconfigured process degrades to correct sync serving
	// rather than failing writes.
	AsyncAck bool
}

// outcomeCap bounds the async outcome ring: the newest outcomeCap
// submissions stay queryable, older ones are evicted (a poll for an
// evicted ID is a 404, like an evicted trace).
const outcomeCap = 4096

// banded reports whether a member band was configured.
func (o Options) banded() bool { return o.Lo != 0 || o.Hi != 0 }

// inBand reports whether score falls inside the member band.
func (o Options) inBand(score float64) bool {
	if !o.banded() {
		return true
	}
	return o.Lo <= score && score < o.Hi
}

// asyncWriter is the submit surface of a group-commit store
// (topk.Batched): enqueue a write, get a pollable outcome future.
type asyncWriter interface {
	SubmitInsert(pos, score float64) topk.Future
	SubmitDelete(pos, score float64) topk.Future
}

// New returns the handler tree over st. Handlers use only the
// topk.Store interface; Sharded- or Cluster-specific introspection is
// probed through optional interfaces (seen through batching wrappers
// via their Unwrap — see probe).
func New(st topk.Store, opt Options) http.Handler {
	t := opt.Obs
	if t == nil {
		t = obs.New(obs.Options{})
	}
	// Async-ack needs somewhere to enqueue: the store's own submit
	// surface, probed on the outer store (the batcher is the wrapper
	// itself, never an inner layer).
	aw, _ := st.(asyncWriter)
	asyncAck := opt.AsyncAck && aw != nil
	var outcomes *outcomeRing // nil unless async-ack is on
	if asyncAck {
		outcomes = &outcomeRing{m: make(map[string]topk.Future, outcomeCap)}
	}
	mux := http.NewServeMux()

	// writeJSON logs encode failures (a client gone mid-response,
	// usually) through the structured logger instead of dropping them.
	writeJSON := func(w http.ResponseWriter, v any) { writeJSONLog(w, v, t.Log) }

	// handle registers h under /v1/pattern.
	handle := func(method, pattern string, h http.HandlerFunc) {
		mux.HandleFunc(method+" /v1"+pattern, h)
	}

	handle("POST", "/insert", func(w http.ResponseWriter, r *http.Request) {
		var req topk.Result
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "bad json: %v", err)
			return
		}
		if !opt.inBand(req.Score) {
			httpError(w, http.StatusBadRequest, "out_of_range",
				"score %v outside this member's band [%v, %v)", req.Score, opt.Lo, opt.Hi)
			return
		}
		if asyncAck {
			// Async-ack mode: enqueue into the batcher and answer 202
			// with a pollable outcome ID. The band check above already
			// ran — a misrouted write still fails loudly and
			// synchronously; only in-band writes are deferred.
			f := func() topk.Future {
				defer t.TimeOpCtx(r.Context(), "insert")()
				return aw.SubmitInsert(req.X, req.Score)
			}()
			writeJSONStatus(w, http.StatusAccepted, wire.Accepted{Accepted: true, Outcome: outcomes.add(f)}, t.Log)
			return
		}
		// Insert is atomic check-and-insert under the shard lock, so
		// concurrent duplicates race to one 200 and one 409 — and a
		// duplicate score anywhere in the fleet is a 409 too.
		st := bindStore(st, r)
		err := func() error { defer t.TimeOpCtx(r.Context(), "insert")(); return st.Insert(req.X, req.Score) }()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, wire.Inserted{N: st.Len(), OK: true})
	})

	handle("POST", "/delete", func(w http.ResponseWriter, r *http.Request) {
		var req topk.Result
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "bad json: %v", err)
			return
		}
		if asyncAck {
			f := func() topk.Future {
				defer t.TimeOpCtx(r.Context(), "delete")()
				return aw.SubmitDelete(req.X, req.Score)
			}()
			writeJSONStatus(w, http.StatusAccepted, wire.Accepted{Accepted: true, Outcome: outcomes.add(f)}, t.Log)
			return
		}
		st := bindStore(st, r)
		found := func() bool { defer t.TimeOpCtx(r.Context(), "delete")(); return st.Delete(req.X, req.Score) }()
		writeJSON(w, wire.Deleted{Found: found, N: st.Len()})
	})

	handle("POST", "/batch", func(w http.ResponseWriter, r *http.Request) {
		var req wire.BatchReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "bad json: %v", err)
			return
		}
		items, err := runBatch(r.Context(), bindStore(st, r), opt, t, req.Ops)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "%v", err)
			return
		}
		writeJSON(w, wire.BatchResp{N: st.Len(), Results: items})
	})

	handle("GET", "/topk", func(w http.ResponseWriter, r *http.Request) {
		x1, err1 := queryFloat(r, "x1")
		x2, err2 := queryFloat(r, "x2")
		k, err3 := queryInt(r, "k")
		if err1 != nil || err2 != nil || err3 != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "need float x1, x2 and int k")
			return
		}
		// Pagination for large k: ?offset=N skips the N highest-scoring
		// qualifying points, so a client can walk a huge answer in
		// pages of k without the server ever allocating beyond the live
		// size (the clamp below caps offset+k at n first).
		off := 0
		if s := r.URL.Query().Get("offset"); s != "" {
			var err error
			if off, err = strconv.Atoi(s); err != nil || off < 0 {
				httpError(w, http.StatusBadRequest, "bad_request", "offset must be a non-negative int")
				return
			}
		}
		st := bindStore(st, r)
		res := func() []topk.Result {
			defer t.TimeOpCtx(r.Context(), "topk")()
			return st.TopK(x1, x2, ClampPage(st, off, k))
		}()
		if off < len(res) {
			res = res[off:]
		} else {
			res = []topk.Result{} // a no-hit page is [], not null
		}
		writeJSON(w, wire.TopK{Offset: off, Results: res})
	})

	handle("GET", "/count", func(w http.ResponseWriter, r *http.Request) {
		x1, err1 := queryFloat(r, "x1")
		x2, err2 := queryFloat(r, "x2")
		if err1 != nil || err2 != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "need float x1 and x2")
			return
		}
		st := bindStore(st, r)
		n := func() int { defer t.TimeOpCtx(r.Context(), "count")(); return st.Count(x1, x2) }()
		writeJSON(w, wire.Count{Count: n})
	})

	// The topology epoch: a cheap signal that the member's topology
	// changed, without paying for /v1/stats, and the cluster health
	// checker's liveness probe. Backends without a topology epoch
	// report 0 — the endpoint stays probeable on every backend.
	handle("GET", "/epoch", func(w http.ResponseWriter, r *http.Request) {
		var e int64
		if ep, ok := probe[interface{ Epoch() int64 }](st); ok {
			e = ep.Epoch()
		}
		writeJSON(w, wire.Epoch{Epoch: e})
	})

	// The member's score band, for gateway discovery. Open ends are
	// null (JSON cannot carry ±Inf); an unbanded process reports both
	// ends open.
	handle("GET", "/range", func(w http.ResponseWriter, r *http.Request) {
		out := wire.Range{N: st.Len()}
		if opt.banded() {
			if !math.IsInf(opt.Lo, -1) {
				out.Lo = &opt.Lo
			}
			if !math.IsInf(opt.Hi, 1) {
				out.Hi = &opt.Hi
			}
		}
		writeJSON(w, out)
	})

	// A finished trace's span tree, by ID. The ID comes out of the
	// X-Topkd-Trace response header of the traced request (issued by
	// the middleware, or adopted from the client's own header). On a
	// gateway the local tree — root plus one span per member RPC plus
	// the merge — is stitched: the handler fans back out to the members
	// that served RPCs for this trace, fetches each member's own span
	// tree for the same ID, and splices it under the RPC span that
	// issued it (matched by the X-Topkd-Parent-Span ID the client
	// stamped), so one lookup returns the complete cross-process tree.
	// Traces live in a bounded ring, so a 404 means "never sampled or
	// already evicted", not "never happened"; a member that has evicted
	// (or never sampled) its half degrades that subtree gracefully —
	// the RPC span stays, unspliced.
	handle("GET", "/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		tr := t.Tracer.Get(id)
		if tr == nil {
			httpError(w, http.StatusNotFound, "trace_not_found",
				"no finished trace %q (not sampled, or evicted from the ring)", id)
			return
		}
		tree := tr.Tree()
		if tf, ok := probe[traceFetcher](st); ok {
			stitchMembers(r.Context(), tf, id, &tree)
		}
		writeJSON(w, tree)
	})

	// The outcome of an async-acked write, by the ID the 202 response
	// carried. Outcomes live in a bounded ring like traces, so a 404
	// means "unknown or already evicted". A resolved outcome reports
	// done plus either ok or the same structured error the synchronous
	// endpoint would have returned — error fidelity survives the 202.
	handle("GET", "/outcome/{id}", func(w http.ResponseWriter, r *http.Request) {
		f, ok := outcomes.get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "outcome_not_found",
				"no outcome %q (unknown, or evicted from the ring)", r.PathValue("id"))
			return
		}
		if !f.Ready() {
			writeJSON(w, wire.Outcome{})
			return
		}
		err := f.Err()
		applied := err == nil
		out := wire.Outcome{Done: true, OK: &applied}
		if !applied {
			_, out.Error = wire.Code(err)
		}
		writeJSON(w, out)
	})

	// Administrative twins of Store.ResetStats/DropCache, so remote
	// operators (and the Cluster client, which must implement the full
	// Store contract over the wire) can reach them.
	handle("POST", "/stats/reset", func(w http.ResponseWriter, r *http.Request) {
		st.ResetStats()
		writeJSON(w, wire.OK{OK: true})
	})
	handle("POST", "/cache/drop", func(w http.ResponseWriter, r *http.Request) {
		st.DropCache()
		writeJSON(w, wire.OK{OK: true})
	})

	// Prometheus text-format metrics, the machine-scrapable twin of the
	// JSON /v1/stats: both pages render one collect scrape. On the
	// sharded backend everything here is served from the topology
	// snapshot, atomic counters and brief per-shard meter reads — a
	// scrape never takes the topology lock, so it cannot stall lifecycle
	// or update writers. On a gateway the same handler reports the
	// cluster-aggregated meters summed across members.
	handle("GET", "/metrics", func(w http.ResponseWriter, r *http.Request) {
		f := collect(st, t, outcomes)
		var b strings.Builder
		for _, x := range f.scalars {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", x.name, x.help, x.name, x.typ, x.name, x.v)
		}
		if tel := f.ingest; tel != nil {
			obs.WriteCountHistogram(&b, "topkd_ingest_group_size",
				"Ops per committed write group (value histogram, power-of-two buckets).", &tel.GroupSize)
			obs.WriteHistogram(&b, "topkd_ingest_flush_duration_seconds",
				"Backend flush latency per committed write group.", &tel.FlushLatency)
			obs.WriteHistogram(&b, "topkd_ingest_backpressure_wait_seconds",
				"Time producers spent driving commits because pending writes exceeded MaxPending.", &tel.BackpressureWait)
			fmt.Fprintf(&b, "# HELP topkd_ingest_flushes_by_reason_total Write groups committed, by the trigger that drove the flush.\n"+
				"# TYPE topkd_ingest_flushes_by_reason_total counter\n")
			for _, rc := range tel.ReasonCounts() {
				fmt.Fprintf(&b, "topkd_ingest_flushes_by_reason_total{reason=%q} %d\n", rc.Reason, rc.N)
			}
		}
		obs.WriteHistogramVec(&b, "topkd_http_request_duration_seconds",
			"Request latency by endpoint.", "endpoint", t.HTTP)
		obs.WriteHistogramVec(&b, "topkd_store_op_duration_seconds",
			"Store operation latency by op.", "op", t.Ops)
		if f.rpc != nil {
			obs.WriteHistogramVec(&b, "topkd_cluster_rpc_duration_seconds",
				"Member RPC latency by member address, as seen by this gateway's cluster client.", "member", f.rpc)
		}
		obs.WriteRuntimeMetrics(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})

	// Fleet-federated metrics, gateway only: scrape every member's
	// /v1/metrics, merge counters and histograms exactly (every
	// histogram in the fleet shares the identical 2^i bucket
	// boundaries, so summing per-bucket counts is lossless), and label
	// per-member gauges by node address. One scrape yields true fleet
	// p50/p95/p99 instead of N pages to combine client-side. The
	// gateway's own process page stays at /v1/metrics.
	handle("GET", "/metrics/fleet", func(w http.ResponseWriter, r *http.Request) {
		ms, ok := probe[metricsScraper](st)
		if !ok {
			httpError(w, http.StatusNotFound, "not_gateway",
				"metrics federation needs a cluster backend (this process serves no members)")
			return
		}
		pages, total := ms.ScrapeMetrics(r.Context())
		fams, err := obs.Federate(pages)
		if err != nil {
			httpError(w, http.StatusBadGateway, "bad_member_page", "federation failed: %v", err)
			return
		}
		var b strings.Builder
		fmt.Fprintf(&b, "# HELP topkd_fleet_members Member nodes configured in the fleet.\n"+
			"# TYPE topkd_fleet_members gauge\ntopkd_fleet_members %d\n", total)
		fmt.Fprintf(&b, "# HELP topkd_fleet_members_scraped Member nodes that answered this federation scrape.\n"+
			"# TYPE topkd_fleet_members_scraped gauge\ntopkd_fleet_members_scraped %d\n", len(pages))
		obs.WriteFamilies(&b, fams)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})

	// The JSON twin of /v1/metrics: every fact with a stats key, nested
	// by its dot-separated path, plus quantiles estimated from the same
	// histograms /v1/metrics exports raw (so a p99 here is within one
	// log-scaled bucket — a factor of 2 — of the true value).
	handle("GET", "/stats", func(w http.ResponseWriter, r *http.Request) {
		f := collect(st, t, outcomes)
		out := map[string]any{}
		for _, x := range f.scalars {
			if x.key != "" {
				setPath(out, x.key, x.v)
			}
		}
		if tel := f.ingest; tel != nil {
			reasons := map[string]int64{}
			for _, rc := range tel.ReasonCounts() {
				reasons[rc.Reason] = rc.N
			}
			setPath(out, "batcher.flush_reasons", reasons)
			if gs := tel.GroupSize.Snapshot(); gs.Count > 0 {
				setPath(out, "batcher.group_size", map[string]any{
					"count": gs.Count,
					"p50":   gs.Quantile(0.50),
					"p95":   gs.Quantile(0.95),
					"p99":   gs.Quantile(0.99),
				})
			}
			if fl := tel.FlushLatency.Snapshot(); fl.Count > 0 {
				setPath(out, "batcher.flush_latency", quantilesMS(fl))
			}
		}
		if snaps := t.HTTP.Snapshots(); len(snaps) > 0 {
			lat := make(map[string]any, len(snaps))
			for ep, s := range snaps {
				lat[ep] = quantilesMS(s)
			}
			out["latency"] = lat
		}
		writeJSON(w, out)
	})

	// Middleware order: the recover wrapper sits inside the telemetry
	// middleware, so a panicking handler still records its latency, its
	// 500 status and its request log.
	return t.Middleware(WithRecover(mux))
}

// fact is one scalar the introspection pages report: its /v1/stats key
// path (dot-separated; empty for a metrics-only fact), its Prometheus
// family name, type and help text, and its value.
type fact struct {
	key, name, typ, help string
	v                    int64
}

// facts is one introspection scrape of the backend: the scalar facts
// in /v1/metrics order, plus the histograms behind them.
type facts struct {
	scalars []fact
	ingest  *ingest.Telemetry // write-path telemetry of a batching store
	rpc     *obs.Vec          // member RPC latencies, on a gateway
}

// collect probes st once for everything /v1/stats and /v1/metrics
// report, so each fact is stated in one place and both pages agree. A
// surface the backend lacks contributes no facts, and both pages omit
// them. outcomes is the async-ack ring, nil when async-ack is off.
func collect(st topk.Store, t *obs.Telemetry, outcomes *outcomeRing) facts {
	var f facts
	add := func(key, name, typ, help string, v int64) {
		f.scalars = append(f.scalars, fact{key, name, typ, help, v})
	}
	s := st.Stats()
	add("n", "topkd_points_live", "gauge", "Number of live points.", int64(st.Len()))
	add("reads", "topkd_io_reads_total", "counter", "Block reads charged by the simulated EM disks (retired disks included).", s.Reads)
	add("writes", "topkd_io_writes_total", "counter", "Block writes charged by the simulated EM disks (retired disks included).", s.Writes)
	add("blocks_live", "topkd_blocks_live", "gauge", "Disk blocks currently occupied fleet-wide.", s.BlocksLive)
	add("blocks_peak", "topkd_blocks_peak", "gauge", "High-water mark of the fleet-wide live-block total.", s.BlocksPeak)
	if sh, ok := probe[interface{ NumShards() int }](st); ok {
		add("shards", "topkd_shards", "gauge", "Current shard count.", int64(sh.NumShards()))
	}
	// Shard-lifecycle counters: automatic splits and delete-triggered
	// merges.
	if lc, ok := probe[interface {
		Splits() int64
		Merges() int64
	}](st); ok {
		add("splits", "topkd_shard_splits_total", "counter", "Automatic shard splits since startup.", lc.Splits())
		add("merges", "topkd_shard_merges_total", "counter", "Automatic shard merges since startup.", lc.Merges())
	}
	// Group-commit counters and write-path telemetry live on the
	// batching wrapper itself, never on an inner layer.
	if bs, ok := st.(interface{ BatcherStats() topk.BatcherStats }); ok {
		b := bs.BatcherStats()
		add("batcher.flushes", "topkd_ingest_flushes_total", "counter", "Write groups committed by the ingest batcher.", b.Flushes)
		add("batcher.ops", "topkd_ingest_ops_total", "counter", "Single-op writes committed through the ingest batcher.", b.Ops)
		add("batcher.max_group", "topkd_ingest_group_max", "gauge", "Largest single group the ingest batcher has committed.", b.MaxGroup)
		add("batcher.pending", "topkd_ingest_pending", "gauge", "Writes enqueued in the ingest batcher and not yet committed.", b.Pending)
	}
	if it, ok := st.(interface{ IngestTelemetry() *ingest.Telemetry }); ok {
		f.ingest = it.IngestTelemetry()
	}
	if outcomes != nil {
		size, ev := outcomes.snapshot()
		add("batcher.outcome_ring.occupancy", "topkd_outcome_ring_occupancy", "gauge", "Async-ack outcomes currently retained and queryable.", int64(size))
		add("batcher.outcome_ring.evictions", "topkd_outcome_ring_evictions_total", "counter", "Async-ack outcomes evicted from the bounded ring (the cause of outcome_not_found).", ev)
	}
	add("", "topkd_trace_ring_evictions_total", "counter", "Finished traces evicted from the bounded ring (the cause of trace_not_found).", t.Tracer.RingEvictions())
	if ep, ok := probe[interface{ Epoch() int64 }](st); ok {
		// A gauge, not a counter: it tracks the snapshot version, which
		// also advances on stats resets, not only on split/merge/
		// rebalance lifecycle events.
		add("", "topkd_topology_epoch", "gauge", "Topology snapshot version; increments on every snapshot publish (splits, merges, rebalances, stats resets).", ep.Epoch())
	}
	if cl, ok := probe[interface {
		Nodes() int
		Ejected() int
	}](st); ok {
		add("nodes", "topkd_cluster_nodes", "gauge", "Member nodes configured in the cluster.", int64(cl.Nodes()))
		add("ejected", "topkd_cluster_nodes_ejected", "gauge", "Member nodes currently ejected by the health checker.", int64(cl.Ejected()))
	}
	if rf, ok := probe[interface{ ReadFailovers() int64 }](st); ok {
		add("", "topkd_cluster_read_failovers_total", "counter", "Reads retried on a replica after the preferred member failed.", rf.ReadFailovers())
	}
	if he, ok := probe[interface {
		Ejections() int64
		Recoveries() int64
	}](st); ok {
		add("", "topkd_cluster_ejections_total", "counter", "Ejection episodes begun by the health checker (healthy to ejected transitions).", he.Ejections())
		add("", "topkd_cluster_recoveries_total", "counter", "Ejection episodes ended by a member answering again.", he.Recoveries())
	}
	add("", "topkd_http_in_flight_requests", "gauge", "Requests currently inside the serving middleware.", t.InFlight())
	if rv, ok := probe[interface{ RPCDurations() *obs.Vec }](st); ok {
		f.rpc = rv.RPCDurations()
	}
	return f
}

// setPath stores v in m under the dot-separated key path, creating
// the nested objects on the way.
func setPath(m map[string]any, path string, v any) {
	keys := strings.Split(path, ".")
	for _, k := range keys[:len(keys)-1] {
		sub, ok := m[k].(map[string]any)
		if !ok {
			sub = map[string]any{}
			m[k] = sub
		}
		m = sub
	}
	m[keys[len(keys)-1]] = v
}

// quantilesMS summarizes a latency histogram for /v1/stats.
func quantilesMS(s obs.Snapshot) map[string]any {
	return map[string]any{
		"count":  s.Count,
		"p50_ms": float64(s.Quantile(0.50)) / 1e6,
		"p95_ms": float64(s.Quantile(0.95)) / 1e6,
		"p99_ms": float64(s.Quantile(0.99)) / 1e6,
	}
}

// probe type-asserts st against an optional introspection interface,
// unwrapping batching (or future) decorators along the way: a
// topk.Batched over a Sharded must not hide the shard counters from
// /v1/stats just because a wrapper sits in front. The outer store wins
// when both layers implement T.
func probe[T any](st topk.Store) (T, bool) {
	for st != nil {
		if v, ok := st.(T); ok {
			return v, true
		}
		u, ok := st.(interface{ Unwrap() topk.Store })
		if !ok {
			break
		}
		st = u.Unwrap()
	}
	var zero T
	return zero, false
}

// metricsScraper is the optional gateway surface behind metrics
// federation: fetch every member's raw metrics page (topk.Cluster).
type metricsScraper interface {
	ScrapeMetrics(ctx context.Context) ([]obs.MetricsPage, int)
}

// traceFetcher is the optional gateway surface behind trace stitching:
// fetch one member's span tree for a trace ID (topk.Cluster).
type traceFetcher interface {
	FetchTrace(ctx context.Context, addr, id string) (obs.TraceJSON, error)
}

// stitchMembers completes a gateway trace: every distinct member
// address in the tree served at least one RPC for this trace, so fetch
// each member's own half in parallel and splice the subtrees under the
// RPC spans that issued them. Failures degrade gracefully — a member
// that is down, never sampled the trace, or already evicted it simply
// leaves its RPC span childless.
func stitchMembers(ctx context.Context, tf traceFetcher, id string, tree *obs.TraceJSON) {
	addrs := obs.SpanAddrs(tree.Root)
	if len(addrs) == 0 {
		return
	}
	subs := make([]*obs.TraceJSON, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			if mt, err := tf.FetchTrace(ctx, addr, id); err == nil {
				subs[i] = &mt
			}
		}(i, addr)
	}
	wg.Wait()
	members := make([]obs.TraceJSON, 0, len(subs))
	for _, s := range subs {
		if s != nil {
			members = append(members, *s)
		}
	}
	obs.Stitch(&tree.Root, members)
}

// outcomeRing is the bounded registry of async-acked write outcomes,
// the same eviction shape as the trace ring: the newest outcomeCap
// entries stay queryable, older ones age out.
type outcomeRing struct {
	mu        sync.Mutex
	ids       []string // insertion order, oldest first
	m         map[string]topk.Future
	evictions int64
}

// add registers f and returns its outcome ID, evicting the oldest
// entry when the ring is full.
func (g *outcomeRing) add(f topk.Future) string {
	id := fmt.Sprintf("%016x", rand.Uint64())
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.ids) >= outcomeCap {
		delete(g.m, g.ids[0])
		g.ids = g.ids[1:]
		g.evictions++
	}
	g.ids = append(g.ids, id)
	g.m[id] = f
	return id
}

// get looks an outcome up by ID; a nil ring (async-ack off) holds none.
func (g *outcomeRing) get(id string) (topk.Future, bool) {
	if g == nil {
		return topk.Future{}, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	f, ok := g.m[id]
	return f, ok
}

// snapshot returns the ring's occupancy and lifetime eviction count —
// the gauges that explain outcome_not_found responses.
func (g *outcomeRing) snapshot() (size int, evictions int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.ids), g.evictions
}

// bindStore gives st the request's context when the backend can carry
// one — the optional WithContext interface, implemented by the gateway
// Cluster so member RPCs inherit the client's deadline, cancellation
// and trace. Local backends, which have no blocking I/O to cancel,
// don't implement it and are returned unchanged.
func bindStore(st topk.Store, r *http.Request) topk.Store {
	if b, ok := st.(interface {
		WithContext(context.Context) topk.Store
	}); ok {
		return b.WithContext(r.Context())
	}
	return st
}

// runBatch executes a mixed /v1/batch payload: the update ops run
// first as one ApplyBatch, then the query ops as one QueryBatch, and
// the per-op outcomes are stitched back into request order. Queries
// therefore observe every update of their own batch (on Sharded, the
// documented caveat applies within the update half: an insert reusing
// a score deleted on another shard in the same batch may lose the
// race and be rejected).
//
// Query ops paginate exactly like GET /v1/topk: offset skips the
// offset highest-scoring qualifying points, the fetch is clamped to
// min(n, offset+k), and a negative offset is a structured 400 for the
// whole batch (like an unknown op — the request itself is malformed).
func runBatch(ctx context.Context, st topk.Store, opt Options, t *obs.Telemetry, ops []wire.Op) ([]wire.Item, error) {
	updates := make([]topk.BatchOp, 0, len(ops))
	updateAt := make([]int, 0, len(ops))
	queries := make([]topk.Query, 0)
	queryAt := make([]int, 0)
	queryOff := make([]int, 0)
	bandErr := make(map[int]*wire.Err)
	for i, op := range ops {
		switch op.Op {
		case "insert":
			if !opt.inBand(op.Score) {
				bandErr[i] = &wire.Err{Code: "out_of_range",
					Message: fmt.Sprintf("score %v outside this member's band [%v, %v)", op.Score, opt.Lo, opt.Hi)}
				continue
			}
			updates = append(updates, topk.BatchOp{X: op.X, Score: op.Score})
			updateAt = append(updateAt, i)
		case "delete":
			updates = append(updates, topk.BatchOp{Delete: true, X: op.X, Score: op.Score})
			updateAt = append(updateAt, i)
		case "query":
			if op.Offset < 0 {
				return nil, fmt.Errorf("op %d: offset must be a non-negative int", i)
			}
			queries = append(queries, topk.Query{X1: op.X1, X2: op.X2, K: op.K})
			queryAt = append(queryAt, i)
			queryOff = append(queryOff, op.Offset)
		default:
			return nil, fmt.Errorf("op %d: unknown op %q (want insert, delete or query)", i, op.Op)
		}
	}
	items := make([]wire.Item, len(ops))
	for i, e := range bandErr {
		items[i] = wire.Item{Error: e}
	}
	applied := func() []error {
		if len(updates) == 0 {
			return nil
		}
		defer t.TimeOpCtx(ctx, "apply_batch")()
		return st.ApplyBatch(updates)
	}()
	for j, err := range applied {
		if err != nil {
			_, items[updateAt[j]].Error = wire.Code(err)
		} else {
			items[updateAt[j]].OK = true
		}
	}
	// Clamp only now: the batch's own inserts may have grown the live
	// set the queries are about to observe. The fetch covers the
	// skipped offset prefix plus the page, capped at the live size.
	for j := range queries {
		queries[j].K = ClampPage(st, queryOff[j], queries[j].K)
	}
	answered := func() [][]topk.Result {
		if len(queries) == 0 {
			return nil
		}
		defer t.TimeOpCtx(ctx, "query_batch")()
		return st.QueryBatch(queries)
	}()
	for j, res := range answered {
		if off := queryOff[j]; off < len(res) {
			res = res[off:]
		} else {
			res = nil
		}
		items[queryAt[j]] = wire.Item{OK: true, Results: res}
	}
	return items, nil
}

// ClampPage sizes the fetch for a paginated read: the offset points
// plus the page of k, capped at the live size. A page that is empty by
// construction — k ≤ 0, or the offset at/past the live size — fetches
// nothing at all, so a cheap request can never force a full
// materialization it then discards. The comparison form avoids
// overflow when a client sends offset and k both near MaxInt.
func ClampPage(st topk.Store, off, k int) int {
	n := st.Len()
	if k <= 0 || off >= n {
		return 0
	}
	if k > n {
		k = n
	}
	if off > n-k {
		return n
	}
	return off + k
}

// WithRecover turns handler panics into JSON 500s. Contract
// violations return errors in API v1, so a panic here is an internal
// invariant failure — the router releases its locks on panic
// (internal/shard unlocks with defer), so one poisoned request cannot
// wedge the fleet; without this middleware net/http would just sever
// the connection.
func WithRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				log.Printf("topkd: %s %s panicked: %v", r.Method, r.URL.Path, v)
				httpError(w, http.StatusInternalServerError, "internal", "internal error: %v", v)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func queryFloat(r *http.Request, key string) (float64, error) {
	return strconv.ParseFloat(r.URL.Query().Get(key), 64)
}

func queryInt(r *http.Request, key string) (int, error) {
	return strconv.Atoi(r.URL.Query().Get(key))
}

// encBuf is a pooled response-encode buffer with a json.Encoder bound
// to it once — the encoder itself allocates on construction, so the
// pool holds the pair, not just the bytes.
type encBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &encBuf{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// encPoolMax caps what goes back in the pool: one giant response (a
// full topk dump) must not pin its buffer for the life of the process.
const encPoolMax = 64 << 10

// writeJSONLog renders v as the response body through a pooled
// buffer+encoder, logging failures (a vanished client, an unencodable
// value) through the structured logger rather than dropping them.
// Encoding into the buffer first also means an encode error cannot
// leave a half-written 200 on the wire.
func writeJSONLog(w http.ResponseWriter, v any, log *slog.Logger) {
	writeJSONStatus(w, 0, v, log)
}

// writeJSONStatus is writeJSONLog with an explicit status code (0
// means the default 200) — the async-ack path answers 202.
func writeJSONStatus(w http.ResponseWriter, status int, v any, log *slog.Logger) {
	e := encPool.Get().(*encBuf)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		encPool.Put(e)
		log.Error("response encode failed", slog.String("err", err.Error()))
		httpError(w, http.StatusInternalServerError, "internal", "response encode failed")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if status != 0 {
		w.WriteHeader(status)
	}
	if _, err := w.Write(e.buf.Bytes()); err != nil {
		log.Error("response write failed", slog.String("err", err.Error()))
	}
	if e.buf.Cap() <= encPoolMax {
		encPool.Put(e)
	}
}

// writeErr renders a store error with its mapped status and code.
func writeErr(w http.ResponseWriter, err error) {
	status, e := wire.Code(err)
	httpError(w, status, e.Code, "%s", e.Message)
}

func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wire.ErrBody{Error: wire.Err{Code: code, Message: fmt.Sprintf(format, args...)}})
}
