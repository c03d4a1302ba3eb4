package serve

// Golden wire bytes: every /v1 response serve renders from the shared
// wire structs, and the body of the gateway's /v1/batch request, pinned
// byte for byte. Key order, number formatting, the empty-results "[]"
// and the omitted zero fields of a gateway op are all part of the
// contract a deployed client decodes against.

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	topk "repro"
)

// goldenPoints is a small fixed set with exactly representable
// coordinates, so the rendered floats are stable across platforms.
var goldenPoints = []topk.Result{
	{X: 1, Score: 0.5}, {X: 2.5, Score: 0.125}, {X: 4, Score: 0.875},
	{X: 7.25, Score: 0.3}, {X: 10, Score: 0.65},
}

func goldenStore(t *testing.T) topk.Store {
	t.Helper()
	st, err := topk.LoadSharded(topk.ShardedConfig{Shards: 2}, goldenPoints)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

type goldenCase struct {
	method, path, body string
	status             int
	want               string
}

func checkGolden(t *testing.T, base string, cases []goldenCase) {
	t.Helper()
	for _, c := range cases {
		req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status || string(data) != c.want {
			t.Errorf("%s %s %s:\n got %d %q\nwant %d %q", c.method, c.path, c.body, resp.StatusCode, data, c.status, c.want)
		}
	}
}

// TestGoldenResponses replays one fixed request sequence against a
// fixed store and compares every response body byte for byte.
func TestGoldenResponses(t *testing.T) {
	srv := httptest.NewServer(New(goldenStore(t), Options{}))
	defer srv.Close()
	checkGolden(t, srv.URL, []goldenCase{
		{"GET", "/v1/topk?x1=0&x2=8&k=3", "", 200,
			`{"offset":0,"results":[{"x":4,"score":0.875},{"x":1,"score":0.5},{"x":7.25,"score":0.3}]}` + "\n"},
		{"GET", "/v1/topk?x1=100&x2=200&k=3", "", 200, `{"offset":0,"results":[]}` + "\n"},
		{"GET", "/v1/topk?x1=0&x2=100&k=2&offset=2", "", 200,
			`{"offset":2,"results":[{"x":1,"score":0.5},{"x":7.25,"score":0.3}]}` + "\n"},
		{"GET", "/v1/topk?x1=0&x2=100&k=2&offset=9", "", 200, `{"offset":9,"results":[]}` + "\n"},
		{"GET", "/v1/topk?x1=0&k=2", "", 400,
			`{"error":{"code":"bad_request","message":"need float x1, x2 and int k"}}` + "\n"},
		{"GET", "/v1/count?x1=0&x2=8", "", 200, `{"count":4}` + "\n"},
		{"GET", "/v1/epoch", "", 200, `{"epoch":1}` + "\n"},
		{"GET", "/v1/range", "", 200, `{"hi":null,"lo":null,"n":5}` + "\n"},
		{"POST", "/v1/insert", `{"x":3,"score":0.9}`, 200, `{"n":6,"ok":true}` + "\n"},
		{"POST", "/v1/insert", `{"x":3,"score":0.95}`, 409,
			`{"error":{"code":"duplicate_position","message":"position already present"}}` + "\n"},
		{"POST", "/v1/insert", `{"x":11,"score":0.5}`, 409,
			`{"error":{"code":"duplicate_score","message":"score already present"}}` + "\n"},
		{"POST", "/v1/delete", `{"x":3,"score":0.9}`, 200, `{"found":true,"n":5}` + "\n"},
		{"POST", "/v1/delete", `{"x":3,"score":0.9}`, 200, `{"found":false,"n":5}` + "\n"},
		{"POST", "/v1/batch", `{"ops":[
			{"op":"insert","x":5,"score":0.99},
			{"op":"delete","x":1,"score":0.5},
			{"op":"delete","x":1,"score":0.5},
			{"op":"insert","x":2.5,"score":0.01},
			{"op":"query","x1":0,"x2":100,"k":3},
			{"op":"query","x1":100,"x2":200,"k":3},
			{"op":"query","x1":0,"x2":100,"k":2,"offset":1}]}`, 200,
			`{"n":5,"results":[{"ok":true},{"ok":true},{"ok":false,"error":{"code":"not_found","message":"point not found"}},` +
				`{"ok":false,"error":{"code":"duplicate_position","message":"position already present"}},` +
				`{"ok":true,"results":[{"x":5,"score":0.99},{"x":4,"score":0.875},{"x":10,"score":0.65}]},{"ok":true},` +
				`{"ok":true,"results":[{"x":4,"score":0.875},{"x":10,"score":0.65}]}]}` + "\n"},
		{"POST", "/v1/stats/reset", "", 200, `{"ok":true}` + "\n"},
		{"POST", "/v1/cache/drop", "", 200, `{"ok":true}` + "\n"},
	})

	banded := httptest.NewServer(New(goldenStore(t), Options{Lo: 0.25, Hi: math.Inf(1)}))
	defer banded.Close()
	checkGolden(t, banded.URL, []goldenCase{
		{"GET", "/v1/range", "", 200, `{"hi":null,"lo":0.25,"n":5}` + "\n"},
		{"POST", "/v1/batch", `{"ops":[{"op":"insert","x":20,"score":0.1},{"op":"insert","x":21,"score":0.4}]}`, 200,
			`{"n":6,"results":[{"ok":false,"error":{"code":"out_of_range","message":"score 0.1 outside this member's band [0.25, +Inf)"}},{"ok":true}]}` + "\n"},
	})
	closed := httptest.NewServer(New(goldenStore(t), Options{Lo: math.Inf(-1), Hi: 0.75}))
	defer closed.Close()
	checkGolden(t, closed.URL, []goldenCase{
		{"GET", "/v1/range", "", 200, `{"hi":0.75,"lo":null,"n":5}` + "\n"},
		{"POST", "/v1/insert", `{"x":20,"score":0.8}`, 400,
			`{"error":{"code":"out_of_range","message":"score 0.8 outside this member's band [-Inf, 0.75)"}}` + "\n"},
	})
}

// TestGoldenGatewayRequest pins the /v1/batch bodies a gateway sends
// its members: update sub-batches and query batches, with zero
// coordinates omitted and infinite bounds clamped to ±MaxFloat64.
func TestGoldenGatewayRequest(t *testing.T) {
	var mu sync.Mutex
	var bodies []string
	inner := New(goldenStore(t), Options{})
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			data, _ := io.ReadAll(r.Body)
			mu.Lock()
			bodies = append(bodies, string(data))
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(data))
		}
		inner.ServeHTTP(w, r)
	}))
	defer member.Close()
	cl, err := topk.NewCluster(topk.ClusterConfig{Members: []string{member.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.ApplyBatch([]topk.BatchOp{{X: 0, Score: 0.2}, {Delete: true, X: 1, Score: 0.5}, {X: 12.5, Score: 0}})
	cl.QueryBatch([]topk.Query{{X1: math.Inf(-1), X2: math.Inf(1), K: 2}, {X1: 0, X2: 5, K: 1}, {X1: 5, X2: 1, K: 1}})
	want := []string{
		`{"ops":[{"op":"insert","score":0.2},{"op":"delete","x":1,"score":0.5},{"op":"insert","x":12.5}]}` + "\n",
		`{"ops":[{"op":"query","x1":-1.7976931348623157e+308,"x2":1.7976931348623157e+308,"k":2},{"op":"query","x2":5,"k":1}]}` + "\n",
	}
	if len(bodies) != len(want) {
		t.Fatalf("gateway sent %d batch requests %q, want %d", len(bodies), bodies, len(want))
	}
	for i := range want {
		if bodies[i] != want[i] {
			t.Errorf("batch request %d:\n got %q\nwant %q", i, bodies[i], want[i])
		}
	}
}

// TestGoldenAsyncAck pins the async-ack bodies: the 202 acceptance (its
// outcome ID is random, so only its frame is compared) and the three
// outcome states.
func TestGoldenAsyncAck(t *testing.T) {
	bt, err := topk.NewBatched(goldenStore(t), topk.BatchedConfig{Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	srv := httptest.NewServer(New(bt, Options{AsyncAck: true}))
	defer srv.Close()
	submit := func(body string) string {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/insert", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		const pre, post = `{"accepted":true,"outcome":"`, `"}` + "\n"
		s := string(data)
		if resp.StatusCode != http.StatusAccepted || !strings.HasPrefix(s, pre) || !strings.HasSuffix(s, post) ||
			len(s) != len(pre)+16+len(post) {
			t.Fatalf("accept: %d %q", resp.StatusCode, s)
		}
		return s[len(pre) : len(pre)+16]
	}
	ok, dup := submit(`{"x":3,"score":0.9}`), submit(`{"x":4,"score":0.2}`)
	checkGolden(t, srv.URL, []goldenCase{{"GET", "/v1/outcome/" + ok, "", 200, `{"done":false}` + "\n"}})
	bt.Flush()
	checkGolden(t, srv.URL, []goldenCase{
		{"GET", "/v1/outcome/" + ok, "", 200, `{"done":true,"ok":true}` + "\n"},
		{"GET", "/v1/outcome/" + dup, "", 200,
			`{"done":true,"error":{"code":"duplicate_position","message":"position already present"},"ok":false}` + "\n"},
		{"GET", "/v1/outcome/0000000000000000", "", 404,
			`{"error":{"code":"outcome_not_found","message":"no outcome \"0000000000000000\" (unknown, or evicted from the ring)"}}` + "\n"},
	})
}
