package polylog

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/aurs"
	"repro/internal/em"
	"repro/internal/point"
)

// The copy-and-sort leaf selection that quickselect over gathered
// scores replaced, kept here as the differential reference: it copies
// the in-range points, fully sorts them, and reads one rank.

func (t *Tree) oldLeafInRange(h em.Handle, x1, x2 float64) []point.P {
	nd := t.store.Read(h)
	var out []point.P
	for j, ch := range nd.kids {
		clo := nd.kidLo[j]
		chi := nd.hi
		if j+1 < len(nd.kids) {
			chi = nd.kidLo[j+1]
		}
		if chi <= x1 || clo > x2 {
			continue
		}
		for _, p := range t.chunks.Read(ch) {
			if p.In(x1, x2) {
				out = append(out, p)
			}
		}
	}
	return out
}

func sortByScoreDescOld(ps []point.P) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Score > ps[j].Score })
}

func (t *Tree) oldSelectApprox(x1, x2 float64, k int) (float64, bool) {
	if x1 > x2 || t.n == 0 {
		return 0, false
	}
	pieces := t.decompose(x1, x2)
	c1 := 8
	var slabs []aurs.Set
	var cands []float64
	var merged []float64
	for _, pc := range pieces {
		if pc.isLeaf {
			in := t.oldLeafInRange(pc.node, x1, x2)
			if len(in) >= k {
				sortByScoreDescOld(in)
				cands = append(cands, in[k-1].Score)
			} else {
				for _, p := range in {
					merged = append(merged, p.Score)
				}
			}
			continue
		}
		ss := slabSet{g: &aursGroup{fl: t.fl[pc.node]}, a1: pc.a1, a2: pc.a2}
		n := ss.Len()
		switch {
		case n >= c1*k:
			slabs = append(slabs, ss)
		case n >= k:
			t.Fallbacks++
			cands = append(cands, t.fl[pc.node].Select(pc.a1, pc.a2, k))
		case n > 0:
			t.Fallbacks++
			merged = append(merged, t.fl[pc.node].TopIn(pc.a1, pc.a2, n)...)
		}
	}
	if len(slabs) > 0 {
		cands = append(cands, aurs.Select(slabs, c1, k))
	}
	if len(merged) >= k {
		sort.Sort(sort.Reverse(sort.Float64Slice(merged)))
		cands = append(cands, merged[k-1])
	}
	if len(cands) == 0 || t.oldCount(x1, x2) < k {
		return 0, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		best = math.Max(best, c)
	}
	return best, true
}

func (t *Tree) oldCount(x1, x2 float64) int {
	if x1 > x2 {
		return 0
	}
	total := 0
	var walk func(h em.Handle)
	walk = func(h em.Handle) {
		nd := t.store.Read(h)
		if nd.leaf {
			total += len(t.oldLeafInRange(h, x1, x2))
			return
		}
		for j, kid := range nd.kids {
			clo := nd.kidLo[j]
			chi := nd.hi
			if j+1 < len(nd.kids) {
				chi = nd.kidLo[j+1]
			}
			if chi <= x1 || clo > x2 {
				continue
			}
			if clo >= x1 && chi <= math.Nextafter(x2, math.Inf(1)) {
				total += t.store.Read(kid).weight
				continue
			}
			walk(kid)
		}
	}
	walk(t.root)
	return total
}

func (t *Tree) oldNextBest(u em.Handle, nd *node) (float64, bool) {
	want := t.gu[u].Len() + 1
	if nd.leaf {
		if want > nd.weight {
			return 0, false
		}
		in := t.oldLeafInRange(u, math.Inf(-1), math.Inf(1))
		if len(in) < want {
			return 0, false
		}
		sortByScoreDescOld(in)
		return in[want-1].Score, true
	}
	return t.fl[u].SelectExact(want)
}

// oldDelete is Delete with the reference nextBest.
func (t *Tree) oldDelete(p point.P) bool {
	h := t.root
	for {
		nd := t.store.Read(h)
		if nd.leaf {
			break
		}
		h = nd.kids[routeKid(nd, p.X)]
	}
	if !t.leafDelete(h, p) {
		return false
	}
	t.n--
	for w := h; w != em.NilHandle; {
		nd := t.store.Read(w)
		nd.weight--
		t.store.Write(w, nd)
		w = nd.parent
	}
	for u := h; u != em.NilHandle; {
		if !t.gu[u].Contains(p.Score) {
			return true
		}
		t.removeFromG(u, p.Score)
		nd := t.store.Read(u)
		if refill, ok := t.oldNextBest(u, nd); ok {
			t.addToG(u, refill)
		}
		u = nd.parent
	}
	return true
}

// TestSelectionMatchesCopyAndSort builds two identical trees and drives
// one through the selection code and the other through the
// copy-and-sort reference: every SelectApprox τ, Count, leaf nextBest
// and em.Stats delta must agree, through random queries interleaved
// with deletes (whose G-set refills go through nextBest) and inserts.
// The first shape is the benchmark's shard (F = 8, leaf cap 2048,
// B = 64); the second keeps leaves near |G_u| so refills reach a
// leaf's last rank.
func TestSelectionMatchesCopyAndSort(t *testing.T) {
	for _, c := range []struct {
		name     string
		opt      Options
		b, n     int
		frames   int
		maxK     int
		lastRank bool // some leaf nextBest must hit the leaf's last rank
	}{
		{"shard", Options{L: 64, F: 8, LeafCap: 2048, N: 12000}, 64, 12000, 256, 64, false},
		{"small-leaves", Options{L: 2, F: 4, LeafCap: 24, N: 600}, 32, 600, 16, 2, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if last := selectionDifferential(t, c.opt, c.b, c.n, c.frames, c.maxK); c.lastRank && last == 0 {
				t.Fatal("no leaf nextBest reached the leaf's last rank")
			}
		})
	}
}

// selectionDifferential runs the comparison and returns how many leaf
// nextBest calls asked for the leaf's last rank.
func selectionDifferential(t *testing.T, opt Options, b, n, frames, maxK int) int {
	pts := genPoints(n, 21)
	mk := func() (*Tree, *em.Disk) {
		d := em.NewDisk(em.Config{B: b, M: frames * b})
		return Bulk(d, opt, pts), d
	}
	nw, dn := mk()
	ol, do := mk()
	if dn.Stats() != do.Stats() {
		t.Fatalf("builds differ: %v vs %v", dn.Stats(), do.Stats())
	}
	same := func(what string, step int) {
		t.Helper()
		if dn.Stats() != do.Stats() {
			t.Fatalf("step %d %s: stats %v, reference %v", step, what, dn.Stats(), do.Stats())
		}
		if nw.Fallbacks != ol.Fallbacks {
			t.Fatalf("step %d %s: fallbacks %d, reference %d", step, what, nw.Fallbacks, ol.Fallbacks)
		}
	}
	rng := rand.New(rand.NewSource(22))
	live := append([]point.P(nil), pts...)
	leaves, lastRank := 0, 0
	for step := 0; step < 1500; step++ {
		span := float64(n*4) * math.Pow(10, -3+3*rng.Float64())
		x1 := rng.Float64() * float64(n*4)
		x2 := x1 + span
		k := 1 + rng.Intn(maxK)
		tn, okn := nw.SelectApprox(x1, x2, k)
		to, oko := ol.oldSelectApprox(x1, x2, k)
		if tn != to || okn != oko {
			t.Fatalf("step %d SelectApprox(%v,%v,%d) = %v,%v; reference %v,%v", step, x1, x2, k, tn, okn, to, oko)
		}
		same("SelectApprox", step)
		if cn, co := nw.Count(x1, x2), ol.oldCount(x1, x2); cn != co {
			t.Fatalf("step %d Count = %d, reference %d", step, cn, co)
		}
		same("Count", step)

		// nextBest of a random leaf, compared directly.
		h := nw.root
		for nd := nw.store.Peek(h); !nd.leaf; nd = nw.store.Peek(h) {
			h = nd.kids[rng.Intn(len(nd.kids))]
		}
		if nd := nw.store.Peek(h); nw.gu[h].Len()+1 == nd.weight {
			lastRank++
		}
		bn, okbn := nw.nextBest(h, nw.store.Read(h))
		bo, okbo := ol.oldNextBest(h, ol.store.Read(h))
		if bn != bo || okbn != okbo {
			t.Fatalf("step %d nextBest = %v,%v; reference %v,%v", step, bn, okbn, bo, okbo)
		}
		if okbn {
			leaves++
		}
		same("nextBest", step)

		switch i := rng.Intn(len(live)); {
		case step%3 == 0:
			p := live[i]
			if !nw.Delete(p) || !ol.oldDelete(p) {
				t.Fatalf("step %d: delete %v failed", step, p)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			same("Delete", step)
		case step%7 == 0:
			p := point.P{X: float64(n*4) + float64(step), Score: float64(n*4) + float64(step)}
			nw.Insert(p)
			ol.Insert(p)
			live = append(live, p)
			same("Insert", step)
		}
	}
	if leaves == 0 {
		t.Fatal("no leaf nextBest had a successor; the differential compared nothing")
	}
	t.Logf("%d leaf nextBest calls had a successor, %d of them at the leaf's last rank", leaves, lastRank)
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return lastRank
}
