// Package wire is the /v1 JSON schema, written once: internal/serve
// encodes these structs and internal/cluster's member client decodes
// the same structs, so the two ends of a gateway→member hop cannot
// drift apart. Points travel as point.P, whose JSON tags are the wire
// form. The package also holds the one table that maps the library's
// sentinel errors to their machine-readable codes and HTTP statuses,
// read in both directions: serve renders an error through it, and the
// client maps a received code back to the same sentinel, so a
// rejection that crossed the network still satisfies errors.Is.
//
// Field order is part of the contract: every response struct lists its
// fields in sorted key order, the order the map literals these structs
// replaced used to encode in, so the bytes on the wire are unchanged.
// /v1/stats is the exception: it is rendered from serve's fact list,
// and Stats below is only the subset the client reads back.
package wire

import (
	"errors"
	"fmt"
	"math"
	"net/http"

	"repro/internal/core"
	"repro/internal/point"
)

// ErrNodeDown reports that a member node could not serve a request:
// unreachable, timed out, returned a transport-level failure, or is
// currently ejected by the health checker. It is re-exported as
// cluster.ErrNodeDown and topk.ErrNodeDown; match with errors.Is.
var ErrNodeDown = errors.New("cluster: node down")

// codes is the sentinel ↔ code ↔ HTTP status table. Status is what a
// single-op endpoint answers; inside a /v1/batch response the code
// rides in the item and the batch itself is a 200.
var codes = []struct {
	err    error
	code   string
	status int
}{
	{core.ErrDuplicatePosition, "duplicate_position", http.StatusConflict},
	{core.ErrDuplicateScore, "duplicate_score", http.StatusConflict},
	{core.ErrInvalidPoint, "invalid_point", http.StatusBadRequest},
	{core.ErrNotFound, "not_found", http.StatusNotFound},
	// A gateway whose member fleet cannot take the write reports the
	// outage instead of masking it as an internal error.
	{ErrNodeDown, "node_down", http.StatusServiceUnavailable},
}

// Sentinels lists every error the table maps, in table order.
func Sentinels() []error {
	out := make([]error, len(codes))
	for i, c := range codes {
		out[i] = c.err
	}
	return out
}

// Code maps err to its HTTP status and its structured body; an error
// outside the table is a 500 "internal".
func Code(err error) (int, *Err) {
	for _, c := range codes {
		if errors.Is(err, c.err) {
			return c.status, &Err{Code: c.code, Message: err.Error()}
		}
	}
	return http.StatusInternalServerError, &Err{Code: "internal", Message: err.Error()}
}

// AsError maps a received structured error back to the sentinel the
// member raised, preserving errors.Is across the wire. An unknown code
// (a member running newer code than the gateway) is a plain error,
// never ErrNodeDown: the node answered, the request was rejected.
func (e *Err) AsError() error {
	for _, c := range codes {
		if c.code == e.Code {
			return fmt.Errorf("%w (remote: %s)", c.err, e.Message)
		}
	}
	return fmt.Errorf("cluster: member rejected request: %s (%s)", e.Message, e.Code)
}

// Err is the structured error payload: {"code":..,"message":..}.
type Err struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrBody is the error envelope of every non-2xx JSON response.
type ErrBody struct {
	Error Err `json:"error"`
}

// Op is one element of a POST /v1/batch request: "insert" or "delete"
// carry X and Score; "query" carries X1, X2, K and an optional Offset
// (skip that many of the highest-scoring hits, like GET /v1/topk).
// Zero fields are omitted, and decode as zero.
type Op struct {
	Op     string  `json:"op"`
	X      float64 `json:"x,omitempty"`
	Score  float64 `json:"score,omitempty"`
	X1     float64 `json:"x1,omitempty"`
	X2     float64 `json:"x2,omitempty"`
	K      int     `json:"k,omitempty"`
	Offset int     `json:"offset,omitempty"`
}

// Update returns the wire op of an insert or delete.
func Update(op point.Op) Op {
	if op.Delete {
		return Op{Op: "delete", X: op.X, Score: op.Score}
	}
	return Op{Op: "insert", X: op.X, Score: op.Score}
}

// Query returns the wire op of a query. JSON cannot carry ±Inf, and
// every stored position is finite by the input contract, so infinite
// bounds travel as ±MaxFloat64, which select exactly the same points.
// NaN never reaches here: invalid queries are answered locally.
func Query(q point.Query) Op {
	return Op{Op: "query", X1: finite(q.X1), X2: finite(q.X2), K: q.K}
}

func finite(x float64) float64 {
	if math.IsInf(x, -1) {
		return -math.MaxFloat64
	}
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

// BatchReq is the body of POST /v1/batch.
type BatchReq struct {
	Ops []Op `json:"ops"`
}

// Item is one element of a /v1/batch response, aligned with the
// request ops. Updates carry ok (plus error when rejected); queries
// carry their results.
type Item struct {
	OK      bool      `json:"ok"`
	Error   *Err      `json:"error,omitempty"`
	Results []point.P `json:"results,omitempty"`
}

// BatchResp is the /v1/batch response: the items and the live count
// after the batch.
type BatchResp struct {
	N       int    `json:"n"`
	Results []Item `json:"results"`
}

// TopK is the GET /v1/topk response. Results is never null: a no-hit
// page encodes as [].
type TopK struct {
	Offset  int       `json:"offset"`
	Results []point.P `json:"results"`
}

// Count is the GET /v1/count response.
type Count struct {
	Count int `json:"count"`
}

// Epoch is the GET /v1/epoch response: the topology epoch, 0 on a
// backend without one.
type Epoch struct {
	Epoch int64 `json:"epoch"`
}

// Range is the GET /v1/range response: the member's score band
// [Lo, Hi), open (infinite) ends encoded as null, plus its live count
// for the gateway's replica sanity check.
type Range struct {
	Hi *float64 `json:"hi"`
	Lo *float64 `json:"lo"`
	N  int      `json:"n"`
}

// Bounds returns the band with open ends as ±Inf.
func (r Range) Bounds() (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if r.Lo != nil {
		lo = *r.Lo
	}
	if r.Hi != nil {
		hi = *r.Hi
	}
	return lo, hi
}

// Inserted is the POST /v1/insert response.
type Inserted struct {
	N  int  `json:"n"`
	OK bool `json:"ok"`
}

// Deleted is the POST /v1/delete response.
type Deleted struct {
	Found bool `json:"found"`
	N     int  `json:"n"`
}

// OK is the response of the administrative POSTs (/v1/stats/reset,
// /v1/cache/drop).
type OK struct {
	OK bool `json:"ok"`
}

// Accepted is the 202 answer of an async-acked write: the ID to poll at
// GET /v1/outcome/{id}.
type Accepted struct {
	Accepted bool   `json:"accepted"`
	Outcome  string `json:"outcome"`
}

// Outcome is the GET /v1/outcome/{id} response: done, and once done
// whether the write applied, with the error when it did not.
type Outcome struct {
	Done  bool  `json:"done"`
	Error *Err  `json:"error,omitempty"`
	OK    *bool `json:"ok,omitempty"`
}

// Stats is the part of the fact-rendered GET /v1/stats page the
// cluster client reads back: the live count and the I/O meter.
type Stats struct {
	N          int   `json:"n"`
	Reads      int64 `json:"reads"`
	Writes     int64 `json:"writes"`
	BlocksLive int64 `json:"blocks_live"`
	BlocksPeak int64 `json:"blocks_peak"`
}
