// Package polylog implements the structure of §3.3 of the paper
// (Lemma 4): approximate range k-selection — and through the standard
// reduction, top-k range reporting — for k ≤ l with l = O(polylg n), in
// O(n/B) space, O(log_B n) query I/Os and O(log_B n) amortized update
// I/Os. Theorem 1 uses it in the hardest regime B < lg⁶n, where
// k < B·lg n < lg⁷n is polylogarithmic.
//
// Layout, following §3.3 and the appendix update algorithm:
//
//   - a weight-balanced base tree over the x-coordinates with branching
//     parameter f = √(B·lg n) and leaf capacity b = f·l·B;
//   - for every node u, the set G_u of the c2·l highest scores in u's
//     subtree, kept in a score B-tree at u;
//   - at every internal node, an (f, c2·l)-structure of Lemma 6
//     (package flgroup) over (G_u1, …, G_uf), which also supplies the
//     range-maximum capability of the "slightly augmented B-tree";
//   - at every leaf, the leaf's points in x-sorted one-block chunks
//     supporting exact in-leaf range k-selection (see leaf.go for why
//     this meets the role the paper assigns to the [14] leaf
//     structures at lower update cost).
//
// Construction is bottom-up (Bulk): sort by x, cut the leaves, then
// build each level from the one below, every node's secondary
// structures bulk-loaded from its children's G lists in memory
// (btree.Build, flgroup.Build) — a sort plus linear work, which is what
// the global rebuilding behind Theorem 1's update bound, and every
// shard split and merge above it, pay. Node splits at runtime use the
// same constructors.
//
// A query decomposes q into O(log_f n) canonical multi-slabs plus at
// most two boundary leaves, runs AURS (package aurs, Lemma 5) over the
// multi-slabs — Rank and Max implemented by the (f,c2l)-structures in
// O(log_B(fl)) I/Os each — performs leaf-level k-selection at the
// boundary leaves, and returns the maximum of the candidates.
//
// Degenerate regime: the AURS precondition k ≤ min|S_m|/c1 always holds
// in the paper's parameter regime because every canonical multi-slab
// contains a child subtree of weight ≥ b/4 = f·l·B/4 ≫ c2·l (footnote
// 6). At test scales with tiny subtrees the precondition can fail; the
// query then falls back to an exact merge of the pieces' top-k lists
// (flgroup.TopIn), preserving correctness at a higher I/O cost. The
// fallback is counted and reported so experiments can confirm it never
// fires in-regime.
package polylog

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/btree"
	"repro/internal/em"
	"repro/internal/flgroup"
	"repro/internal/point"
)

// Options configure the structure.
type Options struct {
	// L is the paper's l: queries support k ≤ L.
	L int
	// F is the branching parameter (paper: √(B·lg n)). 0 derives it from
	// the disk block size and N.
	F int
	// LeafCap is the leaf capacity (paper: f·l·B). 0 derives it. Values
	// are clamped to keep test-scale trees non-trivial.
	LeafCap int
	// N is the size hint used to derive F (paper: N ∈ [n, 4n], fixed
	// between global rebuilds).
	N int
}

func (o Options) withDefaults(d *em.Disk) Options {
	if o.L <= 0 {
		o.L = 16
	}
	if o.N <= 0 {
		o.N = 1 << 16
	}
	if o.F <= 0 {
		lg := math.Log2(float64(o.N))
		if lg < 1 {
			lg = 1
		}
		o.F = int(math.Sqrt(float64(d.B()) * lg))
	}
	if o.F < 2 {
		o.F = 2
	}
	if o.LeafCap <= 0 {
		o.LeafCap = o.F * o.L * d.B()
	}
	if o.LeafCap < 8 {
		o.LeafCap = 8
	}
	return o
}

// c2 is the constant of the (f,l)-problem (§3.2); G_u holds c2·l scores.
// flgroup guarantees rank ∈ [k, base³·k] = [k, 8k], so c2 = 8.
const c2 = 8

type node struct {
	leaf     bool
	parent   em.Handle
	childIdx int
	lo, hi   float64
	weight   int // live points in subtree

	kids  []em.Handle
	kidLo []float64
}

func (n *node) size() int { return 8 + 2*len(n.kids) }

// Tree is the §3.3 structure. Create with New.
type Tree struct {
	d     *em.Disk
	opt   Options
	store *em.Store[*node]
	root  em.Handle
	n     int

	// Per-node secondary structures, keyed by node handle. (Their disk
	// footprint is charged by their own stores.)
	gu     map[em.Handle]*btree.Tree    // score B-tree on G_u
	fl     map[em.Handle]*flgroup.Group // internal nodes
	chunks *em.Store[[]point.P]         // leaf point chunks

	// Fallbacks counts queries that left the AURS fast path (degenerate
	// regime detection, experiment E11).
	Fallbacks int

	// scratch is the reused buffer leaf selection gathers scores into.
	// Sharing it across calls is safe only because a Tree is used by one
	// goroutine at a time: every query already mutates the buffer pool's
	// LRU state, so each shard's machine is serialized by its lock
	// (DESIGN.md substitution 1).
	scratch []float64
}

// New returns an empty structure: a single leaf with no points.
func New(d *em.Disk, opt Options) *Tree { return Bulk(d, opt, nil) }

// Bulk builds the structure over pts (in any order) bottom-up, in a
// sort plus linear work. The x-sorted points are cut into leaves of
// ⌊(LeafCap+1)/2⌋, the last leaf taking the remainder (at most
// LeafCap), and each level above groups F nodes per parent the same way
// (the last parent takes at most 2F). That is exactly the tree that
// inserting the points in x order grows, so the base tree, its weights
// and every G_u are the same; only the internal layout of the score
// B-trees and flgroups differs, as each is bulk-loaded (btree.Build,
// flgroup.Build) from the children's G lists, which the build holds in
// memory on the way up: G_u is the top c2·l of their union.
func Bulk(d *em.Disk, opt Options, pts []point.P) *Tree {
	opt = opt.withDefaults(d)
	t := &Tree{
		d: d, opt: opt,
		store: em.NewStore(d, "pl.node", func(n *node) int { return n.size() }),
		gu:    map[em.Handle]*btree.Tree{},
		fl:    map[em.Handle]*flgroup.Group{},
	}
	t.chunks = em.NewStore(d, "pl.chunk", func(ps []point.P) int { return 1 + point.WordSize*len(ps) })
	sorted := append([]point.P(nil), pts...)
	point.SortByX(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].X == sorted[i].X {
			panic(fmt.Sprintf("polylog: duplicate x %v", sorted[i].X))
		}
	}
	t.n = len(sorted)

	// One level of the tree under construction, left to right.
	type built struct {
		h      em.Handle
		lo, hi float64
		g      []float64 // G_u, ascending
	}
	var level []built
	runs := splitRuns(len(sorted), t.opt.LeafCap)
	for i, r := range runs {
		lo, hi := math.Inf(-1), math.Inf(1)
		if i > 0 {
			lo = sorted[r[0]].X
		}
		if i+1 < len(runs) {
			hi = sorted[r[1]].X
		}
		h, g := t.newLeaf(lo, hi, sorted[r[0]:r[1]])
		level = append(level, built{h, lo, hi, g})
	}
	for len(level) > 1 {
		var up []built
		for _, r := range splitRuns(len(level), 2*t.opt.F) {
			grp := level[r[0]:r[1]]
			kids := make([]em.Handle, len(grp))
			kidLo := make([]float64, len(grp))
			sets := make([][]float64, len(grp))
			for j, b := range grp {
				kids[j], kidLo[j], sets[j] = b.h, b.lo, b.g
			}
			lo, hi := grp[0].lo, grp[len(grp)-1].hi
			h, g := t.newInternal(lo, hi, kids, kidLo, sets)
			up = append(up, built{h, lo, hi, g})
		}
		level = up
	}
	t.root = level[0].h
	return t
}

// splitRuns cuts [0, n) the way a node of capacity c splits under
// ascending inserts: runs of ⌊(c+1)/2⌋, the last taking the remainder
// (more than c−⌊(c+1)/2⌋, at most c), or one run when n ≤ c. Runs are
// returned as [start, end) pairs.
func splitRuns(n, c int) [][2]int {
	cut := (c + 1) / 2
	var runs [][2]int
	start := 0
	for n-start > c {
		runs = append(runs, [2]int{start, start + cut})
		start += cut
	}
	return append(runs, [2]int{start, n})
}

// Len returns the number of live points; L the query cap.
func (t *Tree) Len() int { return t.n }
func (t *Tree) L() int   { return t.opt.L }

// guCap is |G_u| at capacity.
func (t *Tree) guCap() int { return c2 * t.opt.L }

// newLeaf allocates a leaf over the slab [lo, hi) holding pts (sorted
// by x) in ⅞-full chunks, the fill btree.Build packs to, and builds its
// G set: the top c2·l of the points' scores, which it returns
// ascending. The leaf takes ownership of pts' backing array: each chunk
// is a segment of it, capped so a later insert reallocates the chunk
// instead of running into the next.
func (t *Tree) newLeaf(lo, hi float64, pts []point.P) (em.Handle, []float64) {
	nd := &node{leaf: true, lo: lo, hi: hi, weight: len(pts)}
	per := max(1, t.chunkCap()*7/8)
	for i := 0; i < len(pts); i += per {
		end := min(i+per, len(pts))
		nd.kids = append(nd.kids, t.chunks.Alloc(pts[i:end:end]))
		if i == 0 {
			nd.kidLo = append(nd.kidLo, lo)
		} else {
			nd.kidLo = append(nd.kidLo, pts[i].X)
		}
	}
	h := t.store.Alloc(nd)
	g := make([]float64, len(pts))
	for i, p := range pts {
		g[i] = p.Score
	}
	slices.Sort(g)
	g = g[max(0, len(g)-t.guCap()):]
	t.gu[h] = btree.Build(t.d, fmt.Sprintf("pl.gu%d", h), g)
	return h, g
}

// newInternal allocates an internal node over the slab [lo, hi) with
// the given children (child j covering [kidLo[j], kidLo[j+1])), links
// them to it, and bulk-builds its secondary structures from sets, the
// children's G sets in ascending order: the flgroup over them, and G_u
// as the top c2·l of their merge, which it returns ascending.
func (t *Tree) newInternal(lo, hi float64, kids []em.Handle, kidLo []float64, sets [][]float64) (em.Handle, []float64) {
	nd := &node{lo: lo, hi: hi, kids: kids, kidLo: kidLo}
	nd.kidLo[0] = lo
	h := t.store.Alloc(nd)
	for j, kid := range kids {
		t.store.Update(kid, func(c **node) {
			(*c).parent, (*c).childIdx = h, j
			nd.weight += (*c).weight
		})
	}
	t.store.Write(h, nd)
	t.fl[h] = flgroup.Build(t.d, len(kids), t.guCap(), sets)
	g := flgroup.Union(sets)
	g = g[max(0, len(g)-t.guCap()):]
	t.gu[h] = btree.Build(t.d, fmt.Sprintf("pl.gu%d", h), g)
	return h, g
}

// kidSets reads the G sets of the given children, ascending.
func (t *Tree) kidSets(kids []em.Handle) [][]float64 {
	sets := make([][]float64, len(kids))
	for j, kid := range kids {
		sets[j] = t.gu[kid].Keys()
	}
	return sets
}

func routeKid(nd *node, x float64) int {
	lo, hi := 0, len(nd.kids)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if nd.kidLo[mid] <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// --- updates ----------------------------------------------------------

// Insert adds p in O(log_B n) amortized I/Os (appendix update
// algorithm): descend to the leaf, update its [14] structure, then fix
// the G sets bottom-up, entering p's score wherever it ranks in the top
// c2·l of an ancestor's subtree.
func (t *Tree) Insert(p point.P) {
	h := t.root
	for {
		nd := t.store.Read(h)
		nd.weight++
		t.store.Write(h, nd)
		if nd.leaf {
			break
		}
		h = nd.kids[routeKid(nd, p.X)]
	}
	t.n++
	t.leafInsert(h, p)
	t.bubbleInsert(h, p.Score)
	t.splitIfNeeded(h)
}

// bubbleInsert enters score s into G_u along the leaf-to-root path for
// as long as it ranks in the top c2·l, maintaining the parents' flgroup
// sets in lockstep with the score B-trees.
func (t *Tree) bubbleInsert(h em.Handle, s float64) {
	for h != em.NilHandle {
		g := t.gu[h]
		full := g.Len() >= t.guCap()
		if full {
			mn, _ := g.Min()
			if s <= mn {
				return // s does not enter G_u, so nor any ancestor's
			}
			t.removeFromG(h, mn)
		}
		t.addToG(h, s)
		h = t.store.Read(h).parent
	}
}

// addToG inserts s into G_u's score B-tree and the parent's flgroup.
func (t *Tree) addToG(h em.Handle, s float64) {
	t.gu[h].Insert(s)
	nd := t.store.Read(h)
	if nd.parent != em.NilHandle {
		t.fl[nd.parent].Insert(nd.childIdx+1, s)
	}
}

// removeFromG removes s from G_u and the parent's flgroup.
func (t *Tree) removeFromG(h em.Handle, s float64) {
	t.gu[h].Delete(s)
	nd := t.store.Read(h)
	if nd.parent != em.NilHandle {
		t.fl[nd.parent].Delete(nd.childIdx+1, s)
	}
}

// Delete removes p, reporting whether it was present.
func (t *Tree) Delete(p point.P) bool {
	// Locate the leaf.
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
	// Decrement weights along the path.
	for w := h; w != em.NilHandle; {
		nd := t.store.Read(w)
		nd.weight--
		t.store.Write(w, nd)
		w = nd.parent
	}
	// Fix the G sets bottom-up: wherever score(p) was a member of G_u,
	// remove it and refill with the next-best score of u's subtree.
	for u := h; u != em.NilHandle; {
		g := t.gu[u]
		if !g.Contains(p.Score) {
			return true // not in G_u ⇒ not in any ancestor's
		}
		t.removeFromG(u, p.Score)
		nd := t.store.Read(u)
		if refill, ok := t.nextBest(u, nd); ok {
			t.addToG(u, refill)
		}
		u = nd.parent
	}
	return true
}

// nextBest returns the (|G_u|+1)-th best score of u's subtree, i.e. the
// element to promote into G_u after a removal, if the subtree has one.
// For internal nodes it is the (|G_u|+1)-th of ∪G_ui, read exactly from
// the flgroup's B-tree on G; for leaves it comes from the [14]
// structure.
func (t *Tree) nextBest(u em.Handle, nd *node) (float64, bool) {
	want := t.gu[u].Len() + 1
	if nd.leaf {
		if want > nd.weight {
			return 0, false
		}
		return t.leafSelect(u, math.Inf(-1), math.Inf(1), want)
	}
	return t.fl[u].SelectExact(want)
}

// --- splits -----------------------------------------------------------

// splitIfNeeded splits an overfull leaf and cascades upward, rebuilding
// the secondary structures of the split node and its parent as the
// appendix prescribes.
func (t *Tree) splitIfNeeded(h em.Handle) {
	for h != em.NilHandle {
		nd := t.store.Read(h)
		over := (nd.leaf && nd.weight > t.opt.LeafCap) ||
			(!nd.leaf && len(nd.kids) > 2*t.opt.F)
		if !over {
			return
		}
		var left, right em.Handle
		if nd.leaf {
			left, right = t.splitLeaf(h, nd)
		} else {
			left, right = t.splitInternal(h, nd)
		}

		if nd.parent == em.NilHandle {
			// New root above the two halves.
			kids := []em.Handle{left, right}
			kidLo := []float64{math.Inf(-1), t.store.Read(right).lo}
			t.root, _ = t.newInternal(math.Inf(-1), math.Inf(1), kids, kidLo, t.kidSets(kids))
			return
		}

		// Splice the two halves into the parent and rebuild its
		// flgroup (fanout changed).
		par := t.store.Read(nd.parent)
		j := nd.childIdx
		rlo := t.store.Read(right).lo
		par.kids = append(par.kids, em.NilHandle)
		par.kidLo = append(par.kidLo, 0)
		copy(par.kids[j+2:], par.kids[j+1:])
		copy(par.kidLo[j+2:], par.kidLo[j+1:])
		par.kids[j] = left
		par.kids[j+1] = right
		par.kidLo[j+1] = rlo
		t.store.Write(nd.parent, par)
		t.store.Update(left, func(c **node) { (*c).parent, (*c).childIdx = nd.parent, j })
		t.store.Update(right, func(c **node) { (*c).parent, (*c).childIdx = nd.parent, j+1 })
		for jj := j + 2; jj < len(par.kids); jj++ {
			t.store.Update(par.kids[jj], func(c **node) { (*c).childIdx = jj })
		}
		t.rebuildSecondary(nd.parent)
		h = nd.parent
	}
}

// splitLeaf splits leaf h in half by x into two fresh leaves (chunks
// and G sets built by newLeaf). The handle h is retired.
func (t *Tree) splitLeaf(h em.Handle, nd *node) (em.Handle, em.Handle) {
	all := t.leafAll(h)
	point.SortByX(all)
	mid := len(all) / 2
	lh, _ := t.newLeaf(nd.lo, all[mid].X, all[:mid])
	rh, _ := t.newLeaf(all[mid].X, nd.hi, all[mid:])
	t.retire(h)
	return lh, rh
}

// splitInternal splits internal node h in half by child index. The
// handle h is retired; both halves get fresh secondary structures.
func (t *Tree) splitInternal(h em.Handle, nd *node) (em.Handle, em.Handle) {
	mid := len(nd.kids) / 2
	half := func(a, b int, lo, hi float64) em.Handle {
		kids := append([]em.Handle(nil), nd.kids[a:b]...)
		kidLo := append([]float64(nil), nd.kidLo[a:b]...)
		nh, _ := t.newInternal(lo, hi, kids, kidLo, t.kidSets(kids))
		return nh
	}
	lh := half(0, mid, nd.lo, nd.kidLo[mid])
	rh := half(mid, len(nd.kids), nd.kidLo[mid], nd.hi)
	t.retire(h)
	return lh, rh
}

// rebuildSecondary bulk-rebuilds internal node u's flgroup over its
// children's G sets after a split changed its fanout. G_u itself, and
// so the parent's flgroup, stay as they are: a split moves points
// between u's children but none into or out of u's subtree.
func (t *Tree) rebuildSecondary(u em.Handle) {
	nd := t.store.Read(u)
	t.fl[u].Free()
	t.fl[u] = flgroup.Build(t.d, len(nd.kids), t.guCap(), t.kidSets(nd.kids))
}

// FreeAll releases every node and secondary structure.
func (t *Tree) FreeAll() {
	var rec func(h em.Handle)
	rec = func(h em.Handle) {
		nd := t.store.Read(h)
		if !nd.leaf { // leaf kids are chunk handles, retired by retire
			for _, kid := range nd.kids {
				rec(kid)
			}
		}
		t.retire(h)
	}
	rec(t.root)
	t.root = em.NilHandle
	t.n = 0
}

// retire frees a node and its secondary structures.
func (t *Tree) retire(h em.Handle) {
	if g, ok := t.gu[h]; ok {
		g.Free()
		delete(t.gu, h)
	}
	if g, ok := t.fl[h]; ok {
		g.Free()
		delete(t.fl, h)
	}
	if t.store.Peek(h).leaf {
		t.freeLeafChunks(h)
	}
	t.store.Free(h)
}
