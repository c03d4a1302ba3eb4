package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	topk "repro"
	"repro/internal/wire"
)

// failStore is a member store that rejects every update with err.
type failStore struct {
	topk.Store
	err error
}

func (f failStore) ApplyBatch(ops []topk.BatchOp) []error {
	res := make([]error, len(ops))
	for i := range res {
		res[i] = f.err
	}
	return res
}

// gatewayWrite sends one insert through a gateway whose only member is
// the given handler, and returns the op's outcome.
func gatewayWrite(t *testing.T, member http.Handler) error {
	t.Helper()
	srv := httptest.NewServer(member)
	defer srv.Close()
	cl, err := topk.NewCluster(topk.ClusterConfig{Members: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	return cl.ApplyBatch([]topk.BatchOp{{X: 100, Score: 100}})[0]
}

// TestErrorRoundTrip: every sentinel of the wire table, raised on a
// member, satisfies errors.Is at the gateway — carried in a /v1/batch
// item, and carried in a non-2xx error envelope. An error outside the
// table arrives as none of them.
func TestErrorRoundTrip(t *testing.T) {
	for _, sentinel := range wire.Sentinels() {
		raised := fmt.Errorf("member: %w", sentinel)
		if err := gatewayWrite(t, New(failStore{goldenStore(t), raised}, Options{})); !errors.Is(err, sentinel) {
			t.Errorf("%v as a batch item: gateway got %v", sentinel, err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", New(goldenStore(t), Options{}))
		mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) { writeErr(w, raised) })
		if err := gatewayWrite(t, mux); !errors.Is(err, sentinel) {
			t.Errorf("%v as an error envelope: gateway got %v", sentinel, err)
		}
	}
	err := gatewayWrite(t, New(failStore{goldenStore(t), errors.New("member: disk on fire")}, Options{}))
	if err == nil {
		t.Fatal("unmapped member error: gateway reported success")
	}
	for _, sentinel := range wire.Sentinels() {
		if errors.Is(err, sentinel) {
			t.Errorf("unmapped member error arrived as %v: %v", sentinel, err)
		}
	}
}
