package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	topk "repro"
	"repro/internal/serve"
)

// system is one booted workload: the store or fleet under test plus
// the handles the benchmark reads its counters from.
type system struct {
	target   target
	sharded  []*topk.Sharded // the local store, or one per fleet member
	batched  *topk.Batched
	cluster  *topk.Cluster
	closers  []func()
	members  []string       // fleet: member base URLs
	memberOf map[string]int // fleet: member host → member index
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// target is how a client drives a system: one op at a time, plus the
// metering hooks of the metered pass.
type target interface {
	do(o op) ([]topk.Result, error)
	stats() topk.Stats
	dropCache()
	size() int
}

var errNotFound = errors.New("delete: point not found")

// setup boots s's system over pts. A non-nil tracer installs the
// span-recording wrappers at every layer boundary; they record only
// while the tracer is switched on.
func setup(s spec, pts []topk.Result, clients int, tr *tracer) (*system, error) {
	if s.members > 0 {
		return setupFleet(s, pts, clients, tr)
	}
	return setupLocal(s, pts, tr)
}

func setupLocal(s spec, pts []topk.Result, tr *tracer) (*system, error) {
	sh, err := topk.LoadSharded(topk.ShardedConfig{Config: config(s.framesPerShard, s.shards), Shards: s.shards}, pts)
	if err != nil {
		return nil, fmt.Errorf("load sharded: %w", err)
	}
	sys := &system{sharded: []*topk.Sharded{sh}}
	sys.closers = append(sys.closers, func() { _ = sh.Close() })
	var st topk.Store = sh
	if tr != nil {
		if st, err = wrapStore(sh, tr, "shard", "shard", "client"); err != nil {
			sys.close()
			return nil, err
		}
	}
	if s.batched {
		// The topkd -batch-window path: default batcher config,
		// synchronous Insert/Delete.
		b, err := topk.NewBatched(st, topk.BatchedConfig{})
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("batched: %w", err)
		}
		sys.batched = b
		sys.closers = append(sys.closers, func() { _ = b.Close() })
		st = b
	}
	sys.target = localTarget{st}
	return sys, nil
}

// setupFleet boots the e18 rig: members each serving a quantile score
// band of pts from a Sharded through serve.New, and a gateway serving
// a topk.Cluster over them, all over loopback HTTP.
func setupFleet(s spec, pts []topk.Result, clients int, tr *tracer) (*system, error) {
	sorted := byScore(pts)
	sys := &system{memberOf: map[string]int{}}
	for i := 0; i < s.members; i++ {
		start, end := i*len(sorted)/s.members, (i+1)*len(sorted)/s.members
		lo, hi := math.Inf(-1), math.Inf(1)
		if i > 0 {
			lo = sorted[start].Score
		}
		if i < s.members-1 {
			hi = sorted[end].Score
		}
		sh, err := topk.LoadSharded(topk.ShardedConfig{Config: config(0, s.shards), Shards: s.shards}, sorted[start:end])
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("load member %d: %w", i, err)
		}
		sys.sharded = append(sys.sharded, sh)
		sys.closers = append(sys.closers, func() { _ = sh.Close() })
		var st topk.Store = sh
		if tr != nil {
			slot := strconv.Itoa(i)
			if st, err = wrapStore(sh, tr, "member.store", "mstore/"+slot, "mhandler/"+slot); err != nil {
				sys.close()
				return nil, err
			}
		}
		h := serve.New(st, serve.Options{Lo: lo, Hi: hi})
		if tr != nil {
			slot := strconv.Itoa(i)
			h = tr.handler("member.handler", "mhandler/"+slot, "rpc/"+slot, h)
		}
		srv := httptest.NewServer(h)
		sys.closers = append(sys.closers, srv.Close)
		sys.members = append(sys.members, srv.URL)
		sys.memberOf[srv.Listener.Addr().String()] = i
	}
	cfg := topk.ClusterConfig{Members: sys.members, Timeout: 30 * time.Second}
	if tr != nil {
		// The same pooled transport the cluster builds by default,
		// behind the span-recording round tripper.
		inner := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}
		sys.closers = append(sys.closers, inner.CloseIdleConnections)
		cfg.Transport = &tracedTransport{inner: inner, tr: tr, memberOf: sys.memberOf}
	}
	cl, err := topk.NewCluster(cfg)
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("cluster: %w", err)
	}
	sys.cluster = cl
	sys.closers = append(sys.closers, func() { _ = cl.Close() })
	var gst topk.Store = cl
	if tr != nil {
		if gst, err = wrapStore(cl, tr, "gateway.store", "gwstore", "gwhandler"); err != nil {
			sys.close()
			return nil, err
		}
	}
	gh := serve.New(gst, serve.Options{})
	if tr != nil {
		gh = tr.handler("gateway.handler", "gwhandler", "client", gh)
	}
	gsrv := httptest.NewServer(gh)
	sys.closers = append(sys.closers, gsrv.Close)
	ct := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, IdleConnTimeout: 90 * time.Second}
	sys.closers = append(sys.closers, ct.CloseIdleConnections)
	sys.target = &fleetTarget{base: gsrv.URL, client: &http.Client{Transport: ct}, cl: cl}
	return sys, nil
}

// localTarget drives an in-process Store.
type localTarget struct{ st topk.Store }

func (t localTarget) do(o op) ([]topk.Result, error) {
	switch o.kind {
	case opInsert:
		return nil, t.st.Insert(o.p.X, o.p.Score)
	case opDelete:
		if !t.st.Delete(o.p.X, o.p.Score) {
			return nil, errNotFound
		}
		return nil, nil
	}
	return t.st.TopK(o.x1, o.x2, o.k), nil
}

func (t localTarget) stats() topk.Stats { return t.st.Stats() }
func (t localTarget) dropCache()        { t.st.DropCache() }
func (t localTarget) size() int         { return t.st.Len() }

// fleetTarget drives the gateway over HTTP; metering goes through the
// in-process Cluster, which asks the members.
type fleetTarget struct {
	base   string
	client *http.Client
	cl     *topk.Cluster
	// respBytes, when set, receives each TopK response's body size.
	respBytes func(int)
}

func fmtF(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func (t *fleetTarget) topkURL(o op) string {
	return t.base + "/v1/topk?x1=" + fmtF(o.x1) + "&x2=" + fmtF(o.x2) + "&k=" + strconv.Itoa(o.k)
}

func (t *fleetTarget) do(o op) ([]topk.Result, error) {
	switch o.kind {
	case opInsert, opDelete:
		path := "/v1/insert"
		if o.kind == opDelete {
			path = "/v1/delete"
		}
		body, _ := json.Marshal(map[string]float64{"x": o.p.X, "score": o.p.Score})
		var r struct {
			OK    bool `json:"ok"`
			Found bool `json:"found"`
		}
		if _, err := t.call(http.MethodPost, t.base+path, body, &r); err != nil {
			return nil, err
		}
		if o.kind == opDelete && !r.Found || o.kind == opInsert && !r.OK {
			return nil, fmt.Errorf("%s %v: not applied", path, o.p)
		}
		return nil, nil
	}
	return t.get(t.topkURL(o))
}

// get runs one GET /v1/topk by URL.
func (t *fleetTarget) get(url string) ([]topk.Result, error) {
	var r struct {
		Results []topk.Result `json:"results"`
	}
	n, err := t.call(http.MethodGet, url, nil, &r)
	if err != nil {
		return nil, err
	}
	if t.respBytes != nil {
		t.respBytes(n)
	}
	return r.Results, nil
}

func (t *fleetTarget) call(method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("%s %s: read body: %w", method, req.URL.Path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return len(data), fmt.Errorf("%s %s: status %d: %s", method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return len(data), fmt.Errorf("%s %s: decode: %w", method, req.URL.Path, err)
	}
	return len(data), nil
}

func (t *fleetTarget) stats() topk.Stats { return t.cl.Stats() }
func (t *fleetTarget) dropCache()        { t.cl.DropCache() }
func (t *fleetTarget) size() int         { return t.cl.Len() }
