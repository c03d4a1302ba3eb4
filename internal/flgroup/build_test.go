package flgroup

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// buildSets draws f disjoint ascending sets whose sizes cross powers
// of the sketch base (so pivot counts change across sets) and include
// the empty set, a singleton and a full set of l.
func buildSets(rng *rand.Rand, f, l int) [][]float64 {
	sizes := []int{0, 1, l, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, l - 1}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	seen := map[float64]bool{}
	sets := make([][]float64, f)
	for i := range sets {
		n := sizes[i%len(sizes)]
		if i >= len(sizes) {
			n = rng.Intn(l + 1)
		}
		for len(sets[i]) < min(n, l) {
			v := math.Round(rng.Float64()*1e6) / 8
			if !seen[v] {
				seen[v] = true
				sets[i] = append(sets[i], v)
			}
		}
		slices.Sort(sets[i])
	}
	return sets
}

// insertBuilt is the structure the per-element path produces for the
// same sets: New, then one Insert per value in a seeded order.
func insertBuilt(rng *rand.Rand, b, f, l int, sets [][]float64) *Group {
	g := New(newDisk(b), f, l)
	type iv struct {
		i int
		v float64
	}
	var all []iv
	for i, set := range sets {
		for _, v := range set {
			all = append(all, iv{i + 1, v})
		}
	}
	rng.Shuffle(len(all), func(a, c int) { all[a], all[c] = all[c], all[a] })
	for _, e := range all {
		g.Insert(e.i, e.v)
	}
	return g
}

// TestBuildMatchesInsertLoop: Build and an insert-built group over the
// same sets agree on every exact query, both satisfy the invariant
// checker and Select's [k, Bound()·k] guarantee over every (α1, α2, k),
// and both keep doing so after the same seeded updates.
func TestBuildMatchesInsertLoop(t *testing.T) {
	for _, c := range []struct{ b, f, l int }{
		{64, 8, 64}, {64, 16, 40}, {32, 3, 33}, {16, 18, 17},
	} {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			sets := buildSets(rng, c.f, c.l)
			m := &model{sets: make([][]float64, c.f)}
			for i, set := range sets {
				m.sets[i] = append([]float64(nil), set...)
			}
			bg := Build(newDisk(c.b), c.f, c.l, sets)
			ig := insertBuilt(rng, c.b, c.f, c.l, sets)
			compareGroups(t, fmt.Sprintf("seed %d build", seed), bg, ig, m)
			for step := 0; step < 300; step++ {
				i := 1 + rng.Intn(c.f)
				s := m.sets[i-1]
				if len(s) > 0 && (len(s) == c.l || rng.Intn(2) == 0) {
					v := s[rng.Intn(len(s))]
					if !bg.Delete(i, v) || !ig.Delete(i, v) {
						t.Fatalf("f=%d l=%d step %d: delete %v missed", c.f, c.l, step, v)
					}
					m.delete(i, v)
				} else {
					v := rng.Float64()*1e6 + 0.5
					bg.Insert(i, v)
					ig.Insert(i, v)
					m.insert(i, v)
				}
			}
			compareGroups(t, fmt.Sprintf("seed %d after updates", seed), bg, ig, m)
		}
	}
}

func compareGroups(t *testing.T, when string, bg, ig *Group, m *model) {
	t.Helper()
	f := bg.F()
	for _, g := range []*Group{bg, ig} {
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("%s f=%d: %v", when, f, err)
		}
	}
	for r := 1; r <= bg.Len()+1; r++ {
		v1, ok1 := bg.SelectExact(r)
		v2, ok2 := ig.SelectExact(r)
		if v1 != v2 || ok1 != ok2 {
			t.Fatalf("%s f=%d: SelectExact(%d) = %v,%v; insert-built %v,%v", when, f, r, v1, ok1, v2, ok2)
		}
	}
	for a1 := 1; a1 <= f; a1++ {
		for a2 := a1; a2 <= f; a2++ {
			m1, ok1 := bg.MaxIn(a1, a2)
			m2, ok2 := ig.MaxIn(a1, a2)
			if m1 != m2 || ok1 != ok2 {
				t.Fatalf("%s f=%d: MaxIn(%d,%d) = %v,%v; insert-built %v,%v", when, f, a1, a2, m1, ok1, m2, ok2)
			}
			var union []float64
			for i := a1 - 1; i < a2; i++ {
				union = append(union, m.sets[i]...)
			}
			slices.Sort(union)
			un := len(union)
			if c1, c2 := bg.CountIn(a1, a2), ig.CountIn(a1, a2); c1 != un || c2 != un {
				t.Fatalf("%s f=%d: CountIn(%d,%d) = %d, insert-built %d, want %d", when, f, a1, a2, c1, c2, un)
			}
			if t1, t2 := bg.TopIn(a1, a2, 9), ig.TopIn(a1, a2, 9); !slices.Equal(t1, t2) {
				t.Fatalf("%s f=%d: TopIn(%d,%d) = %v; insert-built %v", when, f, a1, a2, t1, t2)
			}
			for k := 1; k <= un; k++ {
				for _, g := range []*Group{bg, ig} {
					x := g.Select(a1, a2, k)
					r := un
					if !math.IsInf(x, -1) {
						at, _ := slices.BinarySearch(union, x)
						r = un - at
					}
					if r < k || r > g.Bound()*k {
						t.Fatalf("%s f=%d: Select(%d,%d,%d) rank %d outside [%d,%d]", when, f, a1, a2, k, r, k, g.Bound()*k)
					}
				}
			}
		}
	}
}

// TestBuildCanonicalPivots pins the sketch Build writes: pivot j of
// every set sits at local rank ⌊(3/2)·2^(j−1)⌋, clamped to the set.
func TestBuildCanonicalPivots(t *testing.T) {
	sets := buildSets(rand.New(rand.NewSource(9)), 6, 40)
	g := Build(newDisk(64), 6, 40, sets)
	s := g.decodeSketches(g.blocks.Peek(g.skb))
	for i, set := range sets {
		for j, p := range s.piv[i] {
			if want := min(max(1, 3*(1<<j)/2), len(set)); p.L != want {
				t.Fatalf("set %d pivot %d: local rank %d, want %d", i+1, j+1, p.L, want)
			}
		}
	}
}

// TestBuildWritesEachBlockOnce: the build reads nothing, and each of
// the three compressed blocks is written once.
func TestBuildWritesEachBlockOnce(t *testing.T) {
	d := newDisk(64)
	sets := buildSets(rand.New(rand.NewSource(4)), 8, 64)
	Build(d, 8, 64, sets)
	d.DropCache()
	if s := d.Stats(); s.Reads != 0 || s.Writes != s.BlocksLive {
		t.Fatalf("build: %v, want 0 reads and one write per live block", s)
	}
}

func TestBuildPanics(t *testing.T) {
	for name, sets := range map[string][][]float64{
		"duplicate across sets": {{1, 2}, {2, 3}},
		"set over l":            {{1, 2, 3, 4, 5}, {6}},
		"wrong set count":       {{1}},
		"unsorted set":          {{2, 1}, {3}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Build did not panic", name)
				}
			}()
			Build(newDisk(16), 2, 4, sets)
		}()
	}
}
