package btree

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/em"
)

// TestBuildMatchesModel bulk-loads sizes around every fill boundary,
// checks the shape, rank and select against the sorted input, then
// churns the tree with seeded inserts and deletes (which split and
// merge the packed nodes) and checks it again.
func TestBuildMatchesModel(t *testing.T) {
	for _, b := range []int{8, 16, 64} {
		probe := newTestTree(b)
		lf, kf := buildFill(probe.leafCap), buildFill(probe.kidCap)
		sizes := []int{0, 1, 2, lf - 1, lf, lf + 1, 2 * lf, lf*kf - 1, lf * kf, lf*kf + 1, 3*lf*kf + 7, 5000}
		for _, n := range sizes {
			d := em.NewDisk(em.Config{B: b, M: 8 * b})
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = float64(2 * i)
			}
			tr := Build(d, "t", keys)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("B=%d n=%d: %v", b, n, err)
			}
			if got := tr.Keys(); !slices.Equal(got, keys) && n > 0 {
				t.Fatalf("B=%d n=%d: keys differ", b, n)
			}
			if tr.Len() != n {
				t.Fatalf("B=%d n=%d: Len %d", b, n, tr.Len())
			}
			for r := 1; r <= n; r += 1 + n/50 {
				v, ok := tr.SelectDesc(r)
				if !ok || v != keys[n-r] || tr.RankDesc(v) != r {
					t.Fatalf("B=%d n=%d: rank %d selects %v,%v", b, n, r, v, ok)
				}
			}
			checkPacked(t, tr, b, n)

			model := append([]float64(nil), keys...)
			rng := rand.New(rand.NewSource(int64(n*b + 1)))
			for step := 0; step < 600; step++ {
				if rng.Intn(2) == 0 || len(model) == 0 {
					k := float64(2*rng.Intn(n+50) + 1) // odd: never a built key
					if i, found := slices.BinarySearch(model, k); !found {
						tr.Insert(k)
						model = slices.Insert(model, i, k)
					}
				} else {
					i := rng.Intn(len(model))
					if !tr.Delete(model[i]) {
						t.Fatalf("B=%d n=%d step %d: delete %v missed", b, n, step, model[i])
					}
					model = slices.Delete(model, i, i+1)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("B=%d n=%d after churn: %v", b, n, err)
			}
			if got := tr.Keys(); !slices.Equal(got, model) {
				t.Fatalf("B=%d n=%d after churn: keys differ from model", b, n)
			}
		}
	}
}

// checkPacked asserts Build's shape: every node holds at most the fill
// target and at least half of it (the root excepted), and the tree is
// as short as that packing allows.
func checkPacked(t *testing.T, tr *Tree, b, n int) {
	t.Helper()
	lf, kf := buildFill(tr.leafCap), buildFill(tr.kidCap)
	var rec func(h em.Handle, root bool)
	rec = func(h em.Handle, root bool) {
		nd := tr.store.Peek(h)
		size, target := len(nd.keys), lf
		if !nd.leaf {
			size, target = len(nd.kids), kf
			for _, k := range nd.kids {
				rec(k, false)
			}
		}
		if size > target || (!root && 2*size < target) {
			t.Fatalf("B=%d n=%d: node holds %d, fill target %d", b, n, size, target)
		}
	}
	rec(tr.root, true)
	want, leaves := 1, (n+lf-1)/lf
	for ; leaves > 1; leaves = (leaves + kf - 1) / kf {
		want++
	}
	if tr.Height() != want {
		t.Fatalf("B=%d n=%d: height %d, want %d", b, n, tr.Height(), want)
	}
}

// TestBuildWritesEachNodeOnce: a bulk load reads nothing and writes
// exactly the blocks it leaves live.
func TestBuildWritesEachNodeOnce(t *testing.T) {
	d := em.NewDisk(em.Config{B: 64, M: 8 * 64})
	keys := make([]float64, 10000)
	for i := range keys {
		keys[i] = float64(i)
	}
	Build(d, "t", keys)
	d.DropCache()
	s := d.Stats()
	if s.Reads != 0 || s.Writes != s.BlocksLive {
		t.Fatalf("build: %v, want 0 reads and one write per live block", s)
	}
}

func TestBuildRejectsUnsortedKeys(t *testing.T) {
	for _, keys := range [][]float64{{1, 1}, {2, 1}, {1, 3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Build(%v) did not panic", keys)
				}
			}()
			Build(em.NewDisk(em.Config{B: 16, M: 128}), "t", keys)
		}()
	}
}
