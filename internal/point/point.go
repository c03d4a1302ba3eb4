// Package point defines the vocabulary shared by every tier of the
// repository, from the core structures to the /v1 wire: a
// one-dimensional point with a real-valued score (P), a top-k range
// query (Query) and an update (Op). Each is declared once, here; the
// public topk names are aliases of these types.
//
// Following the paper (§2), a top-k query has a natural geometric
// interpretation: map each element e to the planar point (e, score(e));
// then the query reports the k highest points in the vertical slab
// q × (−∞, ∞). Both coordinates are float64 and scores are assumed
// distinct, the standard assumption that makes top-k results unique.
package point

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// P is an input element: position X with score Score. The JSON tags
// are the /v1 wire form of a point.
type P struct {
	X     float64 `json:"x"`
	Score float64 `json:"score"`
}

// Query asks for the K highest-scoring points with position in
// [X1, X2].
type Query struct {
	X1, X2 float64
	K      int
}

// Valid reports whether q can match anything: K > 0 and X1 ≤ X2. The
// comparison is false when either bound is NaN, so NaN bounds are
// invalid too — every tier answers an invalid query with nothing.
func (q Query) Valid() bool { return q.K > 0 && q.X1 <= q.X2 }

// Op is one update: an insert of (X, Score), or a delete when Delete
// is set.
type Op struct {
	Delete   bool
	X, Score float64
}

// Point returns the point op inserts or deletes.
func (op Op) Point() P { return P{X: op.X, Score: op.Score} }

// Finite reports whether both coordinates are real numbers (no NaN,
// no ±Inf). The paper's input is a set of reals; non-finite values
// additionally break position routing and map-based duplicate guards
// (NaN is unequal to itself), so every insert path rejects them first.
func (p P) Finite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Score) && !math.IsInf(p.Score, 0)
}

// Less orders by X, breaking ties by score (ties in X can occur; ties in
// score are excluded by the distinct-score assumption).
func Less(a, b P) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Score < b.Score
}

// In reports whether p lies in the closed interval [x1, x2].
func (p P) In(x1, x2 float64) bool { return x1 <= p.X && p.X <= x2 }

// SortByX sorts ps ascending by X (score tiebreak).
func SortByX(ps []P) {
	slices.SortFunc(ps, func(a, b P) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		return cmp.Compare(a.Score, b.Score)
	})
}

// SortByScoreDesc sorts ps by descending score.
func SortByScoreDesc(ps []P) {
	slices.SortFunc(ps, func(a, b P) int { return cmp.Compare(b.Score, a.Score) })
}

// KthLargest returns the k-th largest value of xs (1 ≤ k ≤ len(xs)),
// reordering xs in place. It is quickselect with a median-of-three
// pivot; after about 2·lg n partition passes without reaching rank k it
// finishes by heap selection, so no input takes more than O(n log n)
// comparisons, and typical inputs take O(n).
func KthLargest(xs []float64, k int) float64 {
	v, _ := kthLargest(xs, k, selectBudget(len(xs)))
	return v
}

// selectBudget is the number of partition passes KthLargest allows on
// n elements before falling back to heap selection.
func selectBudget(n int) int { return 2 * bits.Len(uint(n)) }

// kthLargest is KthLargest with an explicit partition-pass budget; it
// also returns the number of element comparisons it made.
func kthLargest(xs []float64, k, budget int) (v float64, cmps int) {
	if k < 1 || k > len(xs) {
		panic("point: KthLargest rank outside [1, len]")
	}
	t := k - 1 // target index in descending order
	lo, hi := 0, len(xs)-1
	for hi-lo > 12 {
		if budget == 0 {
			return heapSelect(xs[lo:hi+1], t-lo, cmps)
		}
		budget--
		// Median of three: xs[lo] ≥ xs[mid] ≥ xs[hi], pivot to lo+1.
		mid := lo + (hi-lo)/2
		if xs[mid] > xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] > xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
			if xs[mid] > xs[lo] {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
		}
		cmps += 3
		xs[mid], xs[lo+1] = xs[lo+1], xs[mid]
		pivot := xs[lo+1]
		// xs[hi] ≤ pivot and xs[lo+1] = pivot bound both scans.
		i, j := lo+1, hi
		for {
			for i++; xs[i] > pivot; i++ {
				cmps++
			}
			for j--; xs[j] < pivot; j-- {
				cmps++
			}
			cmps += 2
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		xs[lo+1], xs[j] = xs[j], xs[lo+1]
		// xs[lo:j] ≥ pivot = xs[j] ≥ xs[j+1:hi+1].
		switch {
		case t == j:
			return pivot, cmps
		case t < j:
			hi = j - 1
		default:
			lo = j + 1
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo; j-- {
			cmps++
			if xs[j] <= xs[j-1] {
				break
			}
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[t], cmps
}

// heapSelect returns the element of descending rank r (0-based) of xs
// by building a max-heap and popping r times.
func heapSelect(xs []float64, r, cmps int) (float64, int) {
	n := len(xs)
	for i := n/2 - 1; i >= 0; i-- {
		cmps = siftDown(xs, i, n, cmps)
	}
	for ; r > 0; r-- {
		n--
		xs[0], xs[n] = xs[n], xs[0]
		cmps = siftDown(xs, 0, n, cmps)
	}
	return xs[0], cmps
}

func siftDown(xs []float64, i, n, cmps int) int {
	for {
		c := 2*i + 1
		if c >= n {
			return cmps
		}
		if c+1 < n {
			cmps++
			if xs[c+1] > xs[c] {
				c++
			}
		}
		cmps++
		if !(xs[c] > xs[i]) {
			return cmps
		}
		xs[i], xs[c] = xs[c], xs[i]
		i = c
	}
}

// TopK returns the k highest-scoring points of ps that lie in [x1, x2],
// sorted by descending score. If fewer than k qualify, all are returned.
// It is the brute-force reference semantics of the problem statement.
func TopK(ps []P, x1, x2 float64, k int) []P {
	if k <= 0 {
		return nil
	}
	var in []P
	for _, p := range ps {
		if p.In(x1, x2) {
			in = append(in, p)
		}
	}
	SortByScoreDesc(in)
	if k < len(in) {
		in = in[:k]
	}
	return in
}

// WordSize is the storage footprint of one point in machine words
// (two float64 fields).
const WordSize = 2
