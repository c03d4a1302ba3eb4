package point

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refKth is the reference semantics of KthLargest: sort a copy and
// index it.
func refKth(xs []float64, k int) float64 {
	c := slices.Clone(xs)
	slices.Sort(c)
	return c[len(c)-k]
}

// cmpBound is the worst-case comparison count kthLargest's budget
// permits: 2·lg n partition passes of ≤ n+5 comparisons each, then a
// heap selection of ≤ 2n + 2n·lg n, then one insertion sort of ≤ 13
// elements. Quadratic behaviour breaks it from n = 512 on (see
// TestKthLargestGuardStopsAdversary).
func cmpBound(n int) int {
	l := bits.Len(uint(n))
	return 2*l*(n+5) + 2*n + 2*n*l + 13*13
}

// shapes are the classic adversarial inputs for quicksort-family
// algorithms, plus random and duplicate-heavy ones.
func shapes(n int, rng *rand.Rand) map[string][]float64 {
	mk := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	out := map[string][]float64{
		"sorted":     mk(func(i int) float64 { return float64(i) }),
		"reverse":    mk(func(i int) float64 { return float64(n - i) }),
		"organ-pipe": mk(func(i int) float64 { return float64(min(i, n-1-i)) }),
		"sawtooth":   mk(func(i int) float64 { return float64(i % 7) }),
		"all-equal":  mk(func(int) float64 { return 3 }),
		"random":     mk(func(int) float64 { return rng.Float64() }),
		"few":        mk(func(int) float64 { return float64(rng.Intn(3)) }),
		"m3-killer":  medianOf3Killer(n),
	}
	return out
}

// medianOf3Killer is Musser's sequence that drives median-of-three
// introsort (first/middle/last pivot, STL partition) quadratic: for
// n = 2m, 1, m+1, 3, m+3, …, m−1, 2m−1, then 2, 4, …, 2m. Odd n
// appends n. It is not a killer for this package's partition; the
// adversary built against that one is adversarialInput.
func medianOf3Killer(n int) []float64 {
	m := n / 2
	xs := make([]float64, 0, n)
	for i := 1; i < m; i += 2 {
		xs = append(xs, float64(i), float64(m+i))
	}
	for i := 2; i <= 2*m; i += 2 {
		xs = append(xs, float64(i))
	}
	for len(xs) < n {
		xs = append(xs, float64(len(xs)+1))
	}
	return xs
}

func TestKthLargestShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 13, 14, 15, 64, 257, 1000, 4096} {
		for name, xs := range shapes(n, rng) {
			ks := []int{1, n, (n + 1) / 2, 1 + rng.Intn(n)}
			for _, k := range ks {
				want := refKth(xs, k)
				work := slices.Clone(xs)
				got, cmps := kthLargest(work, k, selectBudget(n))
				if got != want {
					t.Fatalf("%s n=%d k=%d: got %v want %v", name, n, k, got, want)
				}
				if cmps > cmpBound(n) {
					t.Fatalf("%s n=%d k=%d: %d comparisons > bound %d", name, n, k, cmps, cmpBound(n))
				}
				if KthLargest(slices.Clone(xs), k) != want {
					t.Fatalf("%s n=%d k=%d: KthLargest disagrees", name, n, k)
				}
				// The result is a permutation of the input.
				slices.Sort(work)
				ref := slices.Clone(xs)
				slices.Sort(ref)
				if !slices.Equal(work, ref) {
					t.Fatalf("%s n=%d k=%d: input not permuted in place", name, n, k)
				}
			}
		}
	}
}

// TestKthLargestLinearOnTypicalInput holds the common case to O(n): a
// regression to sort-then-index would cost ≈ n·lg n comparisons.
func TestKthLargestLinearOnTypicalInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, trials = 2048, 50
	total := 0
	for range trials {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		_, c := kthLargest(xs, 1+rng.Intn(64), selectBudget(n))
		total += c
	}
	if mean := total / trials; mean > 5*n {
		t.Fatalf("mean %d comparisons for n=%d, want ≤ %d", mean, n, 5*n)
	}
}

// TestKthLargestHeapFallback forces the worst-case guard at every
// depth: with a budget of 0 or 1 the answer must come from heap
// selection and still match the reference.
func TestKthLargestHeapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{14, 100, 1000} {
		for name, xs := range shapes(n, rng) {
			for _, budget := range []int{0, 1} {
				for _, k := range []int{1, n, 1 + rng.Intn(n)} {
					got, cmps := kthLargest(slices.Clone(xs), k, budget)
					if want := refKth(xs, k); got != want {
						t.Fatalf("%s n=%d k=%d budget=%d: got %v want %v", name, n, k, budget, got, want)
					}
					if cmps > cmpBound(n) {
						t.Fatalf("%s n=%d k=%d budget=%d: %d comparisons", name, n, k, budget, cmps)
					}
				}
			}
		}
	}
}

func TestKthLargestRankOutOfRange(t *testing.T) {
	for _, k := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("k=%d on 3 elements did not panic", k)
				}
			}()
			KthLargest([]float64{1, 2, 3}, k)
		}()
	}
}

// FuzzKthLargest decodes the input as small integers (so duplicates
// are common) and checks value and comparison bound at the first, last
// and a fuzzed rank.
func FuzzKthLargest(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(0))
	f.Add([]byte{9}, uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw uint16) {
		if len(raw) < 2 {
			return
		}
		xs := make([]float64, len(raw)/2)
		for i := range xs {
			xs[i] = float64(int16(binary.LittleEndian.Uint16(raw[2*i:])) % 64)
		}
		n := len(xs)
		for _, k := range []int{1, n, 1 + int(kRaw)%n} {
			got, cmps := kthLargest(slices.Clone(xs), k, selectBudget(n))
			if want := refKth(xs, k); got != want {
				t.Fatalf("n=%d k=%d: got %v want %v", n, k, got, want)
			}
			if cmps > cmpBound(n) {
				t.Fatalf("n=%d k=%d: %d comparisons > %d", n, k, cmps, cmpBound(n))
			}
		}
	})
}

// TestTypedSortsMatchSortSlice holds the slices-based sorts to the
// permutation the sort.Slice versions produced, ties included: callers
// feed the order into B-tree insertions whose shape (and I/O) depends
// on it.
func TestTypedSortsMatchSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 5, 12, 13, 50, 200, 3000} {
		ps := make([]P, n)
		for i := range ps {
			// A tiny X domain forces X ties, which the score breaks.
			ps[i] = P{X: float64(rng.Intn(8)), Score: float64(rng.Intn(8)) + float64(i)*1e-9}
		}
		a, b := slices.Clone(ps), slices.Clone(ps)
		sort.Slice(a, func(i, j int) bool { return Less(a[i], a[j]) })
		SortByX(b)
		if !slices.Equal(a, b) {
			t.Fatalf("n=%d: SortByX order differs from sort.Slice", n)
		}
		for i := range ps {
			ps[i] = P{X: float64(i), Score: float64(rng.Intn(8))}
		}
		a, b = slices.Clone(ps), slices.Clone(ps)
		sort.Slice(a, func(i, j int) bool { return a[i].Score > a[j].Score })
		SortByScoreDesc(b)
		if !slices.Equal(a, b) {
			t.Fatalf("n=%d: SortByScoreDesc order differs from sort.Slice on tied scores", n)
		}
	}
}

// kthLargestBy mirrors kthLargest step for step on labels compared
// through greater, so McIlroy's adversary below can answer its
// comparisons lazily. TestKthLargestGuardStopsAdversary checks the
// mirror is faithful: the input it yields must drive the real code
// quadratic once the budget is lifted.
func kthLargestBy(xs []int, k int, greater func(a, b int) bool) {
	t := k - 1
	lo, hi := 0, len(xs)-1
	for hi-lo > 12 {
		mid := lo + (hi-lo)/2
		if greater(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if greater(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
			if greater(xs[mid], xs[lo]) {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
		}
		xs[mid], xs[lo+1] = xs[lo+1], xs[mid]
		pivot := xs[lo+1]
		i, j := lo+1, hi
		for {
			for i++; greater(xs[i], pivot); i++ {
			}
			for j--; greater(pivot, xs[j]); j-- {
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		xs[lo+1], xs[j] = xs[j], xs[lo+1]
		switch {
		case t == j:
			return
		case t < j:
			hi = j - 1
		default:
			lo = j + 1
		}
	}
}

// adversarialInput runs McIlroy's "killer adversary" against
// kthLargestBy: every element starts as gas (above everything solid);
// when two gas elements meet, the pivot candidate is frozen to the
// next lowest solid value. Frozen values form the returned input.
func adversarialInput(n, k int) []float64 {
	gas := n
	val := make([]int, n)
	for i := range val {
		val[i] = gas
	}
	solid, candidate := 0, -1
	freeze := func(x int) { val[x] = solid; solid++ }
	greater := func(a, b int) bool {
		if val[a] == gas && val[b] == gas {
			if a == candidate {
				freeze(a)
			} else {
				freeze(b)
			}
		}
		if val[a] == gas {
			candidate = a
		} else if val[b] == gas {
			candidate = b
		}
		return val[a] > val[b]
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	kthLargestBy(labels, k, greater)
	xs := make([]float64, n)
	for i, v := range val {
		if v == gas { // never frozen: any order above the solid ones
			v = solid
			solid++
		}
		xs[i] = float64(v)
	}
	return xs
}

// TestKthLargestGuardStopsAdversary: an input built against this exact
// pivot rule drives unguarded quickselect quadratic, and the budget
// holds the real code to its O(n log n) bound on it.
func TestKthLargestGuardStopsAdversary(t *testing.T) {
	for _, n := range []int{512, 2048} {
		k := n / 2
		xs := adversarialInput(n, k)
		want := refKth(xs, k)
		got, unguarded := kthLargest(slices.Clone(xs), k, 1<<30)
		if got != want {
			t.Fatalf("n=%d unguarded: got %v want %v", n, got, want)
		}
		if unguarded < n*n/8 {
			t.Fatalf("n=%d: adversarial input took only %d comparisons unguarded; kthLargestBy no longer mirrors kthLargest", n, unguarded)
		}
		got, guarded := kthLargest(slices.Clone(xs), k, selectBudget(n))
		if got != want {
			t.Fatalf("n=%d guarded: got %v want %v", n, got, want)
		}
		if guarded > cmpBound(n) {
			t.Fatalf("n=%d: guarded run took %d comparisons > bound %d (unguarded %d)", n, guarded, cmpBound(n), unguarded)
		}
		t.Logf("n=%d: %d comparisons unguarded, %d guarded", n, unguarded, guarded)
	}
}
