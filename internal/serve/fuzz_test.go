package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	topk "repro"
)

// fuzzStore builds a small store for fuzz iterations: cheap enough to
// rebuild per input (the batch fuzzer mutates it), big enough that
// queries and pagination have something to chew on.
func fuzzStore(t testing.TB) topk.Store {
	t.Helper()
	st := newBareStore(t)
	for i := 0; i < 64; i++ {
		if err := st.Insert(float64(i), float64((i*37)%64)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// FuzzTopKQuery drives GET /v1/topk's query parsing (queryFloat,
// queryInt, the offset guard, ClampPage) with arbitrary parameter
// strings. The handler must never panic, must answer only 200 or 400,
// and every 200 must carry well-formed JSON whose results never
// exceed the store size.
func FuzzTopKQuery(f *testing.F) {
	f.Add("0", "100", "5", "")
	f.Add("-1e308", "1e308", "1000000", "3")
	f.Add("NaN", "Inf", "-1", "-1")
	f.Add("", "", "", "")
	f.Add("1e999", "-1e999", "9999999999999999999", "07")
	f.Add("0x1p4", "1_0", "+5", " 2")
	st := fuzzStore(f)
	h := New(st, Options{})
	f.Fuzz(func(t *testing.T, x1, x2, k, offset string) {
		q := url.Values{}
		q.Set("x1", x1)
		q.Set("x2", x2)
		q.Set("k", k)
		if offset != "" {
			q.Set("offset", offset)
		}
		req := httptest.NewRequest("GET", "/v1/topk?"+q.Encode(), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("x1=%q x2=%q k=%q offset=%q: status %d", x1, x2, k, offset, rec.Code)
		}
		if rec.Code == http.StatusOK {
			var out struct {
				Results []json.RawMessage `json:"results"`
				Offset  int               `json:"offset"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("x1=%q x2=%q k=%q offset=%q: bad JSON: %v", x1, x2, k, offset, err)
			}
			if len(out.Results) > st.Len() {
				t.Fatalf("x1=%q x2=%q k=%q offset=%q: %d results from a %d-point store", x1, x2, k, offset, len(out.Results), st.Len())
			}
		}
	})
}

// FuzzBatchJSON throws arbitrary bytes at the POST /v1/batch decoder.
// A fresh store per input keeps iterations independent (accepted
// payloads mutate it). The handler must never panic, must map every
// input to 200 or 400, and a 200 must echo one well-formed result item
// per op.
func FuzzBatchJSON(f *testing.F) {
	f.Add([]byte(`{"ops":[{"op":"insert","pos":100.5,"score":99}]}`))
	f.Add([]byte(`{"ops":[{"op":"query","x1":0,"x2":50,"k":3},{"op":"delete","pos":1,"score":1}]}`))
	f.Add([]byte(`{"ops":[{"op":"insert","pos":1e999}]}`))
	f.Add([]byte(`{"ops":[{"op":"bogus"}]}`))
	f.Add([]byte(`{"ops":[`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Add([]byte(`{"ops":[{"op":"query","k":-1,"x1":"a"}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		h := New(fuzzStore(t), Options{})
		req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("batch %q: status %d (%s)", body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code == http.StatusOK {
			var out struct {
				Results []json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("batch %q: bad JSON response: %v", body, err)
			}
		}
	})
}
