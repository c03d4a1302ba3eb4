package polylog

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/em"
	"repro/internal/point"
)

// insertLoop builds the structure one Insert at a time, the way Bulk
// used to.
func insertLoop(d *em.Disk, opt Options, pts []point.P) *Tree {
	t := New(d, opt)
	for _, p := range pts {
		t.Insert(p)
	}
	return t
}

// sameShape walks two trees in step and fails on the first node whose
// slab, weight, fanout or G set differs. Only the internal layout of
// the secondary structures (and the leaves' chunking) may differ. It
// returns the depth of the trees.
func sameShape(t *testing.T, a, b *Tree) int {
	t.Helper()
	var rec func(ha, hb em.Handle, depth int) int
	rec = func(ha, hb em.Handle, depth int) int {
		na, nb := a.store.Peek(ha), b.store.Peek(hb)
		if na.leaf != nb.leaf || na.lo != nb.lo || na.hi != nb.hi || na.weight != nb.weight {
			t.Fatalf("depth %d: node leaf=%v [%v,%v) w=%d, reference leaf=%v [%v,%v) w=%d",
				depth, na.leaf, na.lo, na.hi, na.weight, nb.leaf, nb.lo, nb.hi, nb.weight)
		}
		if ga, gb := a.gu[ha].Keys(), b.gu[hb].Keys(); !slices.Equal(ga, gb) {
			t.Fatalf("depth %d [%v,%v): G_u differs (%d vs %d scores)", depth, na.lo, na.hi, len(ga), len(gb))
		}
		if na.leaf {
			return depth
		}
		if !slices.Equal(na.kidLo, nb.kidLo) {
			t.Fatalf("depth %d [%v,%v): child slabs %v, reference %v", depth, na.lo, na.hi, na.kidLo, nb.kidLo)
		}
		deepest := depth
		for j := range na.kids {
			deepest = max(deepest, rec(na.kids[j], nb.kids[j], depth+1))
		}
		return deepest
	}
	return rec(a.root, b.root, 1)
}

// TestBulkMatchesInsertLoop: for sizes around LeafCap and 2F·LeafCap,
// Bulk over x-sorted input and over shuffled input grows exactly the
// base tree, weights and G sets of the insert loop over x-sorted
// input. Every build passes the invariant checker, and so do the bulk
// build and an insert-loop build over the shuffled input after the
// same seeded updates; approximate selection and counting on the bulk
// build hold their guarantees before and after. (Answer equality of
// the two builds is checked one layer up, in core's
// TestBulkMatchesInsertLoopAnswers.)
func TestBulkMatchesInsertLoop(t *testing.T) {
	for _, c := range []struct {
		name  string
		opt   Options
		b     int
		sizes []int
	}{
		// F = 2 and leaf cap 8: 2F·LeafCap = 32, and a few hundred
		// points reach four levels.
		{"tiny", Options{L: 2, F: 2, LeafCap: 8}, 16, []int{0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 200, 333}},
		{"small", Options{L: 4, F: 4, LeafCap: 32}, 32, []int{31, 32, 33, 255, 256, 257, 1500}},
		{"shard", Options{L: 896, F: 8, LeafCap: 2048, N: 8192}, 64, []int{2049, 4097}},
	} {
		deepest := 0
		for _, n := range c.sizes {
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				pts := genPoints(n, int64(n)+7)
				sorted := append([]point.P(nil), pts...)
				point.SortByX(sorted)
				mk := func() *em.Disk { return em.NewDisk(em.Config{B: c.b, M: 16 * c.b}) }

				ref := insertLoop(mk(), c.opt, sorted)
				fromSorted := Bulk(mk(), c.opt, sorted)
				fromShuffled := Bulk(mk(), c.opt, pts)
				for _, tr := range []*Tree{ref, fromSorted, fromShuffled} {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
				deepest = max(deepest, sameShape(t, fromSorted, ref))
				sameShape(t, fromShuffled, ref)
				rng := rand.New(rand.NewSource(int64(n)))
				checkSelect(t, fromShuffled, pts, rng)

				// The same seeded updates on the bulk build and on an
				// insert-loop build over the shuffled input.
				loose := insertLoop(mk(), c.opt, pts)
				live := append([]point.P(nil), pts...)
				for step := 0; step < 3*c.opt.LeafCap; step++ {
					if rng.Intn(2) == 0 && len(live) > 0 {
						i := rng.Intn(len(live))
						if !fromShuffled.Delete(live[i]) || !loose.Delete(live[i]) {
							t.Fatalf("step %d: delete %v missed", step, live[i])
						}
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					} else {
						p := point.P{X: float64(4*n) + float64(step) + 0.5, Score: float64(4*n) + float64(step) + 0.25}
						if rng.Intn(2) == 0 {
							p.X = -p.X
						}
						fromShuffled.Insert(p)
						loose.Insert(p)
						live = append(live, p)
					}
				}
				for _, tr := range []*Tree{fromShuffled, loose} {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("after updates: %v", err)
					}
				}
				checkSelect(t, fromShuffled, live, rng)
			})
		}
		if c.name == "tiny" && deepest < 4 {
			t.Fatalf("tiny shape reached only %d levels", deepest)
		}
	}
}

// checkSelect asserts SelectApprox's rank guarantee on seeded queries.
func checkSelect(t *testing.T, tr *Tree, live []point.P, rng *rand.Rand) {
	t.Helper()
	span := float64(8 * max(1, len(live)))
	for q := 0; q < 200; q++ {
		x1 := rng.Float64()*span - span/2
		x2 := x1 + rng.Float64()*span/2
		k := 1 + rng.Intn(tr.L())
		in := rankIn(live, x1, x2, -1e18)
		tau, ok := tr.SelectApprox(x1, x2, k)
		if ok != (in >= k) {
			t.Fatalf("SelectApprox(%v,%v,%d) ok=%v with %d in range", x1, x2, k, ok, in)
		}
		if r := rankIn(live, x1, x2, tau); ok && (r < k || r > tr.SelectBound()*k) {
			t.Fatalf("SelectApprox(%v,%v,%d) rank %d outside [%d,%d]", x1, x2, k, r, k, tr.SelectBound()*k)
		}
		if got := tr.Count(x1, x2); got != in {
			t.Fatalf("Count(%v,%v) = %d, want %d", x1, x2, got, in)
		}
	}
}

// TestBulkIOsLinear guards the build's I/O count at the benchmark's
// shard shape (B = 64, F = 8, leaf cap 2048, 256 pool frames, and the
// local-mixed shard's l = 896): quadrupling n may at most quadruple the reads plus
// writes, plus slack for the extra tree level. (The insert loop Bulk
// replaced cost 4954 reads + 5649 writes at n = 4096 and 80620 +
// 80235 at n = 16384, a 16× step; this build costs 0 + 497 and
// 24 + 1825.)
func TestBulkIOsLinear(t *testing.T) {
	ios := func(n int) int64 {
		d := em.NewDisk(em.Config{B: 64, M: 256 * 64})
		Bulk(d, Options{L: 64 * 14, F: 8, LeafCap: 2048, N: 2 * n}, genPoints(n, 5))
		d.DropCache()
		s := d.Stats()
		t.Logf("n=%d: %d reads, %d writes", n, s.Reads, s.Writes)
		return s.IOs()
	}
	small, large := ios(4096), ios(16384)
	if 2*large > 9*small {
		t.Fatalf("build I/Os %d at n=16384 exceed 4.5× the %d at n=4096", large, small)
	}
}

func TestBulkRejectsDuplicateX(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bulk accepted a repeated position")
		}
	}()
	Bulk(newDisk(16), smallOpts(2), []point.P{{X: 1, Score: 1}, {X: 2, Score: 2}, {X: 1, Score: 3}})
}
