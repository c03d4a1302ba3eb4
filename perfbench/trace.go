package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	topk "repro"
	"repro/internal/ingest"
)

// span is one timed call across a layer boundary.
type span struct {
	name   string // layer boundary, e.g. "gateway.store"
	op     string // call: "topk", "insert", ..., or the request path
	start  time.Duration
	end    time.Duration
	parent int // index into tracer.spans; -1 for a root
	n      int // results returned (stores), 0 elsewhere
	shards int // shards the call's interval overlaps (Sharded stores)
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory while it is switched on. Parents are
// resolved through named slots: a call opens its span in its own slot
// and takes as parent the span open in its parent's slot at that
// moment. The traced phase drives one client at a time, so each slot
// holds at most one open span.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[string]int{}}
}

// begin opens a span; it returns -1 (record nothing) while the tracer
// is off.
func (tr *tracer) begin(name, op, slot, parentSlot string) int {
	if !tr.on.Load() {
		return -1
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	parent, ok := tr.open[parentSlot]
	if !ok {
		parent = -1
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{name: name, op: op, start: now, parent: parent})
	tr.open[slot] = id
	return id
}

func (tr *tracer) finish(id int, slot string, n, shards int) {
	if id < 0 {
		return
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id]
	s.end, s.n, s.shards = now, n, shards
	if tr.open[slot] == id {
		delete(tr.open, slot)
	}
}

// reset drops every recorded span.
func (tr *tracer) reset() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = nil
	clear(tr.open)
}

// named returns the finished spans of one boundary (and op, when op is
// not empty).
func (tr *tracer) named(name, op string) []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, s := range tr.spans {
		if s.name == name && (op == "" || s.op == op) && s.end > 0 {
			out = append(out, s)
		}
	}
	return out
}

func durations(ss []span) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

// selfTimes returns, for each finished span of one boundary, its
// duration minus the part of it its child spans cover (children may
// overlap: a gateway fans out to members in parallel).
func (tr *tracer) selfTimes(name, op string) []time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range tr.spans {
		if s.parent >= 0 && s.end > 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	var out []time.Duration
	for id, s := range tr.spans {
		if s.name != name || (op != "" && s.op != op) || s.end == 0 {
			continue
		}
		out = append(out, s.dur()-covered(s, kids[id]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.start, p.start), min(k.end, p.end)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// handler wraps an http.Handler in a span.
func (tr *tracer) handler(name, slot, parentSlot string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := tr.begin(name, r.URL.Path, slot, parentSlot)
		h.ServeHTTP(w, r)
		tr.finish(id, slot, 0, 0)
	})
}

// tracedTransport records one span per member RPC, from the request
// until the caller closes the response body.
type tracedTransport struct {
	inner    http.RoundTripper
	tr       *tracer
	memberOf map[string]int // host:port → member index
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	slot := "rpc/" + strconv.Itoa(t.memberOf[req.URL.Host])
	id := t.tr.begin("cluster.rpc", req.URL.Path, slot, "gwstore")
	resp, err := t.inner.RoundTrip(req)
	if err != nil || id < 0 {
		t.tr.finish(id, slot, 0, 0)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.tr.finish(id, slot, 0, 0) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// The optional interfaces internal/serve probes directly on the Store
// it is given (the rest it finds through Unwrap). A wrapper placed in
// front of serve.New must expose exactly those its inner store has, or
// the traced run would serve a different program.
type (
	ctxBinder interface {
		WithContext(context.Context) topk.Store
	}
	batcherSurface interface {
		BatcherStats() topk.BatcherStats
		IngestTelemetry() *ingest.Telemetry
		SubmitInsert(pos, score float64) topk.Future
		SubmitDelete(pos, score float64) topk.Future
	}
)

// tracedStore wraps a Store, recording a span per data call. Unwrap
// lets serve's probes reach every optional interface of the inner
// store (epoch, shard and lifecycle counters, cluster probes).
type tracedStore struct {
	inner             topk.Store
	tr                *tracer
	name, slot, pslot string
	bounds            func() []float64 // Sharded inner: its shard boundaries
}

// wrapStore wraps inner, keeping the optional interfaces serve probes
// directly: WithContext on a Cluster or Batched, and the batcher and
// async-submit surface of a Batched.
func wrapStore(inner topk.Store, tr *tracer, name, slot, parentSlot string) (topk.Store, error) {
	s := &tracedStore{inner: inner, tr: tr, name: name, slot: slot, pslot: parentSlot}
	if b, ok := inner.(interface{ Boundaries() []float64 }); ok {
		if _, isCluster := inner.(*topk.Cluster); !isCluster {
			s.bounds = b.Boundaries
		}
	}
	bs, batcher := inner.(batcherSurface)
	_, binds := inner.(ctxBinder)
	switch {
	case batcher && binds:
		return batchedStore{ctxStore{s}, bs}, nil
	case batcher:
		return nil, fmt.Errorf("wrapStore: %T has a batcher surface but no WithContext", inner)
	case binds:
		return ctxStore{s}, nil
	}
	return s, nil
}

func (s *tracedStore) Unwrap() topk.Store { return s.inner }

func (s *tracedStore) begin(op string) int { return s.tr.begin(s.name, op, s.slot, s.pslot) }

func (s *tracedStore) end(id, n, shards int) { s.tr.finish(id, s.slot, n, shards) }

func (s *tracedStore) Len() int { return s.inner.Len() }

func (s *tracedStore) Insert(pos, score float64) error {
	id := s.begin("insert")
	err := s.inner.Insert(pos, score)
	s.end(id, 0, 0)
	return err
}

func (s *tracedStore) Delete(pos, score float64) bool {
	id := s.begin("delete")
	ok := s.inner.Delete(pos, score)
	s.end(id, 0, 0)
	return ok
}

func (s *tracedStore) ApplyBatch(ops []topk.BatchOp) []error {
	id := s.begin("apply")
	res := s.inner.ApplyBatch(ops)
	s.end(id, len(ops), 0)
	return res
}

func (s *tracedStore) TopK(x1, x2 float64, k int) []topk.Result {
	shards := s.overlapped(x1, x2)
	id := s.begin("topk")
	res := s.inner.TopK(x1, x2, k)
	s.end(id, len(res), shards)
	return res
}

// overlapped counts the shards [x1, x2] overlaps, while tracing.
func (s *tracedStore) overlapped(x1, x2 float64) int {
	if s.bounds == nil || !s.tr.on.Load() {
		return 0
	}
	b := s.bounds()
	lo := sort.Search(len(b), func(i int) bool { return b[i] > x1 })
	hi := sort.Search(len(b), func(i int) bool { return b[i] > x2 })
	return hi - lo + 1
}

func (s *tracedStore) QueryBatch(qs []topk.Query) [][]topk.Result {
	id := s.begin("querybatch")
	res := s.inner.QueryBatch(qs)
	s.end(id, 0, 0)
	return res
}

func (s *tracedStore) Count(x1, x2 float64) int {
	id := s.begin("count")
	n := s.inner.Count(x1, x2)
	s.end(id, 0, 0)
	return n
}

func (s *tracedStore) Stats() topk.Stats { return s.inner.Stats() }
func (s *tracedStore) ResetStats()       { s.inner.ResetStats() }
func (s *tracedStore) DropCache()        { s.inner.DropCache() }

// ctxStore is a tracedStore over a store that binds request contexts.
type ctxStore struct{ *tracedStore }

func (s ctxStore) WithContext(ctx context.Context) topk.Store {
	view := *s.tracedStore
	view.inner = s.inner.(ctxBinder).WithContext(ctx)
	return &view
}

// batchedStore is a ctxStore over a group-commit store.
type batchedStore struct {
	ctxStore
	b batcherSurface
}

func (s batchedStore) BatcherStats() topk.BatcherStats    { return s.b.BatcherStats() }
func (s batchedStore) IngestTelemetry() *ingest.Telemetry { return s.b.IngestTelemetry() }
func (s batchedStore) SubmitInsert(pos, score float64) topk.Future {
	return s.b.SubmitInsert(pos, score)
}
func (s batchedStore) SubmitDelete(pos, score float64) topk.Future {
	return s.b.SubmitDelete(pos, score)
}
