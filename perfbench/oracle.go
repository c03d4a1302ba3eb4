package main

import (
	"fmt"
	"sort"

	topk "repro"
)

// oracle is the brute-force reference over the live set: points kept
// sorted by position, a query answered by scanning its x-range.
type oracle struct {
	pts []topk.Result // ascending X
}

func newOracle(pts []topk.Result) *oracle {
	o := &oracle{pts: append([]topk.Result(nil), pts...)}
	sort.Slice(o.pts, func(i, j int) bool { return o.pts[i].X < o.pts[j].X })
	return o
}

func (o *oracle) find(x float64) int {
	return sort.Search(len(o.pts), func(i int) bool { return o.pts[i].X >= x })
}

func (o *oracle) insert(p topk.Result) {
	i := o.find(p.X)
	o.pts = append(o.pts, topk.Result{})
	copy(o.pts[i+1:], o.pts[i:])
	o.pts[i] = p
}

func (o *oracle) delete(p topk.Result) {
	i := o.find(p.X)
	if i < len(o.pts) && o.pts[i] == p {
		o.pts = append(o.pts[:i], o.pts[i+1:]...)
	}
}

func (o *oracle) topK(x1, x2 float64, k int) []topk.Result {
	in := append([]topk.Result(nil), o.pts[o.find(x1):o.find(x2)]...)
	for j := o.find(x2); j < len(o.pts) && o.pts[j].X == x2; j++ {
		in = append(in, o.pts[j])
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Score > in[j].Score })
	if len(in) > k {
		in = in[:k]
	}
	return in
}

// checkExact compares an answer with the oracle's.
func (o *oracle) checkExact(q op, got []topk.Result) error {
	want := o.topK(q.x1, q.x2, q.k)
	if len(got) != len(want) {
		return fmt.Errorf("topk(%v, %v, %d): %d results, oracle has %d", q.x1, q.x2, q.k, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("topk(%v, %v, %d): result %d is %v, oracle has %v", q.x1, q.x2, q.k, i, got[i], want[i])
		}
	}
	return nil
}

// checkShape is the cheap check of the timed phases: at most k
// results, every position inside the range, scores strictly
// descending.
func checkShape(q op, got []topk.Result) error {
	if len(got) > q.k {
		return fmt.Errorf("topk(%v, %v, %d): %d results", q.x1, q.x2, q.k, len(got))
	}
	for i, r := range got {
		if r.X < q.x1 || r.X > q.x2 {
			return fmt.Errorf("topk(%v, %v, %d): result x=%v out of range", q.x1, q.x2, q.k, r.X)
		}
		if i > 0 && !(r.Score < got[i-1].Score) {
			return fmt.Errorf("topk(%v, %v, %d): scores not descending at %d", q.x1, q.x2, q.k, i)
		}
	}
	return nil
}
