package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	topk "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

// keyPaths lists every key of a JSON object, nested ones as a.b.
func keyPaths(t *testing.T, body []byte) []string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	var out []string
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, v := range m {
			out = append(out, prefix+k)
			if sub, ok := v.(map[string]any); ok {
				walk(prefix+k+".", sub)
			}
		}
	}
	walk("", m)
	sort.Strings(out)
	return out
}

// TestWrappedGatewayIsFaithful boots the fleet twice over the same
// points, once plain and once with every span-recording wrapper in
// place and recording, and requires byte-identical /v1/topk bodies and
// the same /v1/stats keys on the gateway and on every member.
func TestWrappedGatewayIsFaithful(t *testing.T) {
	sp := specs["fleet-read"].scaled(16)
	in := makeInputs(sp, 7)
	plain, err := setup(sp, in.pts, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.close()
	tr := newTracer()
	traced, err := setup(sp, in.pts, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer traced.close()
	tr.on.Store(true)

	pt, tt := plain.target.(*fleetTarget), traced.target.(*fleetTarget)
	for i, q := range drawQueries(in.owners[0], 50) {
		a, b := get(t, pt.topkURL(q)), get(t, tt.topkURL(q))
		if string(a) != string(b) {
			t.Fatalf("query %d: /v1/topk bodies differ:\nplain  %s\ntraced %s", i, a, b)
		}
	}
	if len(tr.named("gateway.store", "topk")) != 50 || len(tr.named("cluster.rpc", "/v1/topk")) != 50*sp.members {
		t.Fatalf("traced fleet recorded %d gateway and %d rpc spans", len(tr.named("gateway.store", "topk")), len(tr.named("cluster.rpc", "/v1/topk")))
	}
	// A request carrying the program's own trace header: the gateway's
	// span tree shows its member RPCs only if the request context
	// reaches the cluster, i.e. only if WithContext is forwarded.
	if a, b := gatewaySpans(t, pt.base), gatewaySpans(t, tt.base); !reflect.DeepEqual(a, b) || !slices.ContainsFunc(a, func(s string) bool { return strings.HasPrefix(s, "@") }) {
		t.Fatalf("gateway trace trees differ or show no member RPC:\nplain  %v\ntraced %v", a, b)
	}
	if a, b := keyPaths(t, get(t, pt.base+"/v1/stats")), keyPaths(t, get(t, tt.base+"/v1/stats")); !reflect.DeepEqual(a, b) {
		t.Fatalf("gateway /v1/stats keys differ:\nplain  %v\ntraced %v", a, b)
	}
	for i := range plain.members {
		a, b := keyPaths(t, get(t, plain.members[i]+"/v1/stats")), keyPaths(t, get(t, traced.members[i]+"/v1/stats"))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("member %d /v1/stats keys differ:\nplain  %v\ntraced %v", i, a, b)
		}
	}
}

// gatewaySpans sends one traced query to a gateway and returns the
// names in the gateway's own span tree, depth-first; a member RPC span
// appears as "@" plus its name, and the member subtrees stitched below
// it are left out (they arrive asynchronously).
func gatewaySpans(t *testing.T, base string) []string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/topk?x1=0&x2=1e6&k=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, "faithful")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var tj obs.TraceJSON
	for i := 0; ; i++ {
		r, err := http.Get(base + "/v1/trace/faithful")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&tj)
		r.Body.Close()
		if r.StatusCode == http.StatusOK && err == nil {
			break
		}
		if i == 100 {
			t.Fatalf("trace not found: status %d, %v", r.StatusCode, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var names []string
	var walk func(s obs.SpanJSON)
	walk = func(s obs.SpanJSON) {
		if s.Addr != "" {
			names = append(names, "@"+s.Name)
			return
		}
		names = append(names, s.Name)
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tj.Root)
	return names
}

// statsKeysOf serves st (wrapped when tr is set) and returns its
// /v1/stats keys.
func statsKeysOf(t *testing.T, st topk.Store, tr *tracer) []string {
	t.Helper()
	if tr != nil {
		var err error
		if st, err = wrapStore(st, tr, "x", "x", ""); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(serve.New(st, serve.Options{}))
	defer srv.Close()
	return keyPaths(t, get(t, srv.URL+"/v1/stats"))
}

// TestWrappedBatchedIsFaithful covers the batcher surface: a wrapper
// in front of a Batched keeps its batcher block on /v1/stats, and one
// between a Batched and its Sharded keeps the shard counters.
func TestWrappedBatchedIsFaithful(t *testing.T) {
	sp := specs["local-mixed"].scaled(64)
	in := makeInputs(sp, 3)
	tr := newTracer()
	build := func(inner bool) topk.Store {
		sh, err := topk.LoadSharded(topk.ShardedConfig{Config: config(sp.framesPerShard, sp.shards), Shards: sp.shards}, in.pts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sh.Close() })
		var st topk.Store = sh
		if inner {
			if st, err = wrapStore(sh, tr, "shard", "shard", "client"); err != nil {
				t.Fatal(err)
			}
		}
		b, err := topk.NewBatched(st, topk.BatchedConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = b.Close() })
		if err := b.Insert(in.owners[0].fresh[0].X, in.owners[0].fresh[0].Score); err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := statsKeysOf(t, build(false), nil)
	if !slices.Contains(want, "batcher.ops") || !slices.Contains(want, "shards") {
		t.Fatalf("unwrapped stats lack batcher or shard keys: %v", want)
	}
	if got := statsKeysOf(t, build(true), nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapper under Batched changed /v1/stats keys:\nwant %v\ngot  %v", want, got)
	}
	if got := statsKeysOf(t, build(false), tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapper over Batched changed /v1/stats keys:\nwant %v\ngot  %v", want, got)
	}
}

func metricValue(t *testing.T, r *report, name string) float64 {
	t.Helper()
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("no metric %s", name)
	return 0
}

// TestDeterminism: at a small size and a fixed seed, two runs give the
// same op sequences and the same metered I/O and space figures; another
// seed gives another op sequence.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"local-read", "local-mixed"} {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 11, seconds: 0.2, scale: 16}
			var reps []*report
			for i := 0; i < 2; i++ {
				r, err := measure(o)
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct() {
					t.Fatalf("run %d incorrect: %v", i, r.ops.firstErr)
				}
				reps = append(reps, r)
			}
			for _, m := range []string{"query_ios", "update_ios", "space_amp"} {
				a, b := metricValue(t, reps[0], m), metricValue(t, reps[1], m)
				if a != b || a == 0 {
					t.Errorf("%s: %v then %v", m, a, b)
				}
			}
			sp := specs[name].scaled(16)
			seq := func(seed uint64) []op {
				in := makeInputs(sp, seed)
				out := append([]op(nil), in.metered...)
				for _, ow := range in.owners {
					for i := 0; i < 100; i++ {
						out = append(out, ow.next())
					}
				}
				return out
			}
			if !reflect.DeepEqual(seq(11), seq(11)) {
				t.Error("same seed, different op sequences")
			}
			if reflect.DeepEqual(seq(11), seq(12)) {
				t.Error("different seeds, same op sequence")
			}
		})
	}
}

// TestWrongAnswerFails: a store that drops a result fails the metered
// pass, and the report is not correct.
func TestWrongAnswerFails(t *testing.T) {
	sp := specs["local-read"].scaled(64)
	in := makeInputs(sp, 5)
	sys, err := setup(sp, in.pts, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	_, tl := meteredPass(dropLast{sys.target}, in.metered, sp.warm, newOracle(in.pts))
	rep := &report{ops: tl}
	if tl.wrong == 0 || rep.correct() {
		t.Fatalf("dropped results went unnoticed: %+v", tl)
	}
	var out strings.Builder
	if err := rep.print(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("result line does not say incorrect:\n%s", out.String())
	}
}

type dropLast struct{ target }

func (d dropLast) do(o op) ([]topk.Result, error) {
	res, err := d.target.do(o)
	if len(res) > 0 {
		res = res[:len(res)-1]
	}
	return res, err
}

func TestCheckShape(t *testing.T) {
	q := op{kind: opTopK, x1: 1, x2: 2, k: 2}
	for _, tc := range []struct {
		res []topk.Result
		ok  bool
	}{
		{[]topk.Result{{X: 1.5, Score: 0.9}, {X: 1.2, Score: 0.3}}, true},
		{[]topk.Result{{X: 1.5, Score: 0.3}, {X: 1.2, Score: 0.9}}, false},
		{[]topk.Result{{X: 2.5, Score: 0.9}}, false},
		{[]topk.Result{{X: 1.5, Score: 0.9}, {X: 1.2, Score: 0.3}, {X: 1.1, Score: 0.1}}, false},
	} {
		if err := checkShape(q, tc.res); (err == nil) != tc.ok {
			t.Errorf("checkShape(%v) = %v", tc.res, err)
		}
	}
}

func TestCovered(t *testing.T) {
	p := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}}
	if got := covered(p, kids); got != 40 {
		t.Fatalf("covered = %v, want 40", got)
	}
}

// TestMetricsMatchBenchmarkJSON runs every workload small, untraced and
// traced, and requires exactly the metric names BENCHMARK.json lists.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			r, err := measure(options{workload: w.Name, seed: 2, seconds: 0.3, trace: trace, rate: 200, scale: 16})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !r.correct() {
				t.Fatalf("%s trace=%v: incorrect: %v", w.Name, trace, r.ops.firstErr)
			}
			var got []string
			for _, m := range r.metrics {
				if !m.printOnly {
					got = append(got, m.name)
				}
			}
			sort.Strings(got)
			want := names(b.EndToEnd)
			if trace {
				want = names(b.PerLayer)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics\n got  %v\n want %v", w.Name, trace, got, want)
			}
		}
	}
}
