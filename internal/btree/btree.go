// Package btree implements an external-memory B-tree over float64 keys,
// augmented with subtree counts so that rank and selection queries run in
// O(log_B n) I/Os.
//
// The paper leans on such trees throughout §3 and §4: a B-tree on G to
// convert a global rank to an element (§4.1), B-trees on each G_i for
// local-rank selection (§4.2), score B-trees for the update algorithm of
// §3.3, and "a (slightly augmented) B-tree" for range-maximum queries on
// G_{u1} ∪ … ∪ G_{uf}. This package provides all of those capabilities:
//
//   - Build (bulk load from sorted keys)   O(n/B)
//   - Insert / Delete / Contains           O(log_B n)
//   - RankDesc (rank = |{e' ≥ e}|, as defined in §3.1)
//   - SelectDesc (element of a given descending rank)
//   - CountRange, MaxInRange (the augmented range-max of §3.3)
//
// Keys are assumed distinct, matching the paper's distinct-score
// assumption.
//
// The tree is leaf-oriented: internal nodes store, per child, the child's
// maximum key and subtree count. Every node occupies one disk block.
package btree

import (
	"fmt"
	"math"

	"repro/internal/em"
)

// node is one B-tree node. Leaves store data keys in ascending order;
// internal nodes store one router (max key of subtree) and one count per
// child, aligned with kids.
type node struct {
	leaf   bool
	keys   []float64   // leaf: data; internal: per-child max key
	kids   []em.Handle // internal only
	counts []int       // internal only: per-child subtree size
}

func (n *node) size() int {
	if n.leaf {
		return 1 + len(n.keys)
	}
	return 1 + 3*len(n.keys)
}

func (n *node) total() int {
	if n.leaf {
		return len(n.keys)
	}
	t := 0
	for _, c := range n.counts {
		t += c
	}
	return t
}

// Tree is an order-statistic external B-tree. Create with New.
type Tree struct {
	store   *em.Store[*node]
	root    em.Handle
	n       int
	leafCap int // max keys in a leaf
	kidCap  int // max children of an internal node
	height  int
}

// New creates an empty tree on d. Node capacities are derived from the
// block size so each node fits in one block.
func New(d *em.Disk, name string) *Tree { return Build(d, name, nil) }

// buildFill is the occupancy Build packs nodes to: ⅞ of capacity, so
// a fresh node takes an eighth of its capacity in inserts before it
// splits, while the tree needs about 40% fewer blocks than the
// half-full nodes that sorted inserts leave behind. DESIGN.md
// ("Construction is bottom-up") has the measurements against ½, ¾ and
// full packing.
func buildFill(capacity int) int { return max(2, capacity*7/8) }

// Build returns a tree holding keys, which must be strictly ascending,
// constructed bottom-up in O(n/B) I/Os (one write per node, no reads):
// leaves are packed to buildFill(leafCap) keys, then each level above
// groups buildFill(kidCap) children per node, a level's entries spread
// evenly over its nodes. It panics on unsorted or repeated keys.
func Build(d *em.Disk, name string, keys []float64) *Tree {
	leafCap := d.B() - 1
	if leafCap < 4 {
		leafCap = 4
	}
	kidCap := (d.B() - 1) / 3
	if kidCap < 4 {
		kidCap = 4
	}
	t := &Tree{
		store:   em.NewStore(d, name, func(n *node) int { return n.size() }),
		leafCap: leafCap,
		kidCap:  kidCap,
		height:  1,
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			panic(fmt.Sprintf("btree: Build keys not strictly ascending at %v", keys[i]))
		}
	}
	t.n = len(keys)
	if len(keys) == 0 {
		t.root = t.store.Alloc(&node{leaf: true})
		return t
	}
	// One private copy backs every leaf; each leaf's slice is capped at
	// its own segment so a later append reallocates instead of running
	// into its neighbour.
	own := append([]float64(nil), keys...)
	var (
		kids   []em.Handle
		maxes  []float64
		counts []int
	)
	for _, r := range evenRuns(len(own), buildFill(t.leafCap)) {
		kids = append(kids, t.store.Alloc(&node{leaf: true, keys: own[r[0]:r[1]:r[1]]}))
		maxes = append(maxes, own[r[1]-1])
		counts = append(counts, r[1]-r[0])
	}
	for len(kids) > 1 {
		var nk []em.Handle
		var nm []float64
		var nc []int
		for _, r := range evenRuns(len(kids), buildFill(t.kidCap)) {
			nd := &node{
				keys:   append([]float64(nil), maxes[r[0]:r[1]]...),
				kids:   append([]em.Handle(nil), kids[r[0]:r[1]]...),
				counts: append([]int(nil), counts[r[0]:r[1]]...),
			}
			nk = append(nk, t.store.Alloc(nd))
			nm = append(nm, maxes[r[1]-1])
			nc = append(nc, nd.total())
		}
		kids, maxes, counts = nk, nm, nc
		t.height++
	}
	t.root = kids[0]
	return t
}

// evenRuns splits [0, n) into ⌈n/per⌉ consecutive runs whose lengths
// differ by at most one, returned as [start, end) pairs.
func evenRuns(n, per int) [][2]int {
	m := (n + per - 1) / per
	runs := make([][2]int, m)
	start := 0
	for i := range runs {
		end := start + n/m
		if i < n%m {
			end++
		}
		runs[i] = [2]int{start, end}
		start = end
	}
	return runs
}

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.n }

// Height returns the number of levels (a lone leaf has height 1).
func (t *Tree) Height() int { return t.height }

// Free releases every node of the tree.
func (t *Tree) Free() {
	var rec func(h em.Handle)
	rec = func(h em.Handle) {
		nd := t.store.Read(h)
		if !nd.leaf {
			for _, k := range nd.kids {
				rec(k)
			}
		}
		t.store.Free(h)
	}
	rec(t.root)
	t.root = em.NilHandle
	t.n = 0
}

// childFor returns the index of the child a key k belongs to: the first
// child whose router (max key) is ≥ k, or the last child.
func childFor(nd *node, k float64) int {
	lo, hi := 0, len(nd.keys)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if nd.keys[mid] >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// leafInsertPos returns the index at which k should sit in a leaf.
func leafInsertPos(nd *node, k float64) int {
	lo, hi := 0, len(nd.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if nd.keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Contains reports whether k is present.
func (t *Tree) Contains(k float64) bool {
	h := t.root
	for {
		nd := t.store.Read(h)
		if nd.leaf {
			i := leafInsertPos(nd, k)
			return i < len(nd.keys) && nd.keys[i] == k
		}
		i := childFor(nd, k)
		h = nd.kids[i]
	}
}

// Insert adds k. It panics if k is already present (keys are distinct by
// the problem's standing assumption; callers enforce it).
func (t *Tree) Insert(k float64) {
	moreKid, grew := t.insertAt(t.root, k)
	if grew {
		old := t.store.Read(t.root)
		more := t.store.Read(moreKid)
		root := &node{
			keys:   []float64{maxKeyOf(old), maxKeyOf(more)},
			kids:   []em.Handle{t.root, moreKid},
			counts: []int{old.total(), more.total()},
		}
		t.root = t.store.Alloc(root)
		t.height++
	}
	t.n++
}

func maxKeyOf(nd *node) float64 {
	if len(nd.keys) == 0 {
		return math.Inf(-1)
	}
	return nd.keys[len(nd.keys)-1]
}

// insertAt inserts k under h. If h splits, the new right sibling's handle
// is returned with grew=true.
func (t *Tree) insertAt(h em.Handle, k float64) (em.Handle, bool) {
	nd := t.store.Read(h)
	if nd.leaf {
		i := leafInsertPos(nd, k)
		if i < len(nd.keys) && nd.keys[i] == k {
			panic(fmt.Sprintf("btree: duplicate key %v", k))
		}
		nd.keys = append(nd.keys, 0)
		copy(nd.keys[i+1:], nd.keys[i:])
		nd.keys[i] = k
		if len(nd.keys) <= t.leafCap {
			t.store.Write(h, nd)
			return em.NilHandle, false
		}
		mid := len(nd.keys) / 2
		right := &node{leaf: true, keys: append([]float64(nil), nd.keys[mid:]...)}
		nd.keys = nd.keys[:mid]
		t.store.Write(h, nd)
		return t.store.Alloc(right), true
	}

	i := childFor(nd, k)
	newKid, grew := t.insertAt(nd.kids[i], k)
	// Refresh router and count for child i.
	child := t.store.Read(nd.kids[i])
	nd.keys[i] = maxKeyOf(child)
	nd.counts[i] = child.total()
	if grew {
		nc := t.store.Read(newKid)
		nd.keys = append(nd.keys, 0)
		nd.kids = append(nd.kids, em.NilHandle)
		nd.counts = append(nd.counts, 0)
		copy(nd.keys[i+2:], nd.keys[i+1:])
		copy(nd.kids[i+2:], nd.kids[i+1:])
		copy(nd.counts[i+2:], nd.counts[i+1:])
		nd.keys[i+1] = maxKeyOf(nc)
		nd.kids[i+1] = newKid
		nd.counts[i+1] = nc.total()
	}
	if len(nd.kids) <= t.kidCap {
		t.store.Write(h, nd)
		return em.NilHandle, false
	}
	mid := len(nd.kids) / 2
	right := &node{
		keys:   append([]float64(nil), nd.keys[mid:]...),
		kids:   append([]em.Handle(nil), nd.kids[mid:]...),
		counts: append([]int(nil), nd.counts[mid:]...),
	}
	nd.keys = nd.keys[:mid]
	nd.kids = nd.kids[:mid]
	nd.counts = nd.counts[:mid]
	t.store.Write(h, nd)
	return t.store.Alloc(right), true
}

// Delete removes k and reports whether it was present.
func (t *Tree) Delete(k float64) bool {
	ok := t.deleteAt(t.root, k)
	if !ok {
		return false
	}
	t.n--
	// Collapse a root with a single child.
	for {
		root := t.store.Read(t.root)
		if root.leaf || len(root.kids) > 1 {
			break
		}
		child := root.kids[0]
		t.store.Free(t.root)
		t.root = child
		t.height--
	}
	return true
}

func (t *Tree) minKids() int { return (t.kidCap + 1) / 2 }
func (t *Tree) minKeys() int { return (t.leafCap + 1) / 2 }

func (t *Tree) deleteAt(h em.Handle, k float64) bool {
	nd := t.store.Read(h)
	if nd.leaf {
		i := leafInsertPos(nd, k)
		if i >= len(nd.keys) || nd.keys[i] != k {
			return false
		}
		nd.keys = append(nd.keys[:i], nd.keys[i+1:]...)
		t.store.Write(h, nd)
		return true
	}
	i := childFor(nd, k)
	if !t.deleteAt(nd.kids[i], k) {
		return false
	}
	child := t.store.Read(nd.kids[i])
	nd.keys[i] = maxKeyOf(child)
	nd.counts[i] = child.total()
	t.rebalanceChild(h, nd, i)
	return true
}

// rebalanceChild restores the minimum-occupancy invariant of child i of
// nd (handle h), borrowing from or merging with a sibling. nd is written
// back in all paths.
func (t *Tree) rebalanceChild(h em.Handle, nd *node, i int) {
	child := t.store.Read(nd.kids[i])
	deficient := false
	if child.leaf {
		deficient = len(child.keys) < t.minKeys()
	} else {
		deficient = len(child.kids) < t.minKids()
	}
	if !deficient || len(nd.kids) == 1 {
		t.store.Write(h, nd)
		return
	}
	// Prefer the left sibling; fall back to the right.
	j := i - 1
	if j < 0 {
		j = i + 1
	}
	sib := t.store.Read(nd.kids[j])
	canBorrow := false
	if sib.leaf {
		canBorrow = len(sib.keys) > t.minKeys()
	} else {
		canBorrow = len(sib.kids) > t.minKids()
	}
	if canBorrow {
		if j < i { // borrow last from left sibling
			if child.leaf {
				last := sib.keys[len(sib.keys)-1]
				sib.keys = sib.keys[:len(sib.keys)-1]
				child.keys = append([]float64{last}, child.keys...)
			} else {
				nk := len(sib.kids) - 1
				child.keys = append([]float64{sib.keys[nk]}, child.keys...)
				child.kids = append([]em.Handle{sib.kids[nk]}, child.kids...)
				child.counts = append([]int{sib.counts[nk]}, child.counts...)
				sib.keys, sib.kids, sib.counts = sib.keys[:nk], sib.kids[:nk], sib.counts[:nk]
			}
		} else { // borrow first from right sibling
			if child.leaf {
				first := sib.keys[0]
				sib.keys = sib.keys[1:]
				child.keys = append(child.keys, first)
			} else {
				child.keys = append(child.keys, sib.keys[0])
				child.kids = append(child.kids, sib.kids[0])
				child.counts = append(child.counts, sib.counts[0])
				sib.keys, sib.kids, sib.counts = sib.keys[1:], sib.kids[1:], sib.counts[1:]
			}
		}
		t.store.Write(nd.kids[i], child)
		t.store.Write(nd.kids[j], sib)
		nd.keys[i] = maxKeyOf(child)
		nd.counts[i] = child.total()
		nd.keys[j] = maxKeyOf(sib)
		nd.counts[j] = sib.total()
		t.store.Write(h, nd)
		return
	}
	// Merge child into sibling (or vice versa): keep the left one.
	l, r := i, j
	if j < i {
		l, r = j, i
	}
	left := t.store.Read(nd.kids[l])
	right := t.store.Read(nd.kids[r])
	left.keys = append(left.keys, right.keys...)
	if !left.leaf {
		left.kids = append(left.kids, right.kids...)
		left.counts = append(left.counts, right.counts...)
	}
	t.store.Write(nd.kids[l], left)
	t.store.Free(nd.kids[r])
	nd.keys[l] = maxKeyOf(left)
	nd.counts[l] = left.total()
	nd.keys = append(nd.keys[:r], nd.keys[r+1:]...)
	nd.kids = append(nd.kids[:r], nd.kids[r+1:]...)
	nd.counts = append(nd.counts[:r], nd.counts[r+1:]...)
	t.store.Write(h, nd)
}

// Max returns the largest key, if any.
func (t *Tree) Max() (float64, bool) {
	if t.n == 0 {
		return 0, false
	}
	h := t.root
	for {
		nd := t.store.Read(h)
		if nd.leaf {
			return nd.keys[len(nd.keys)-1], true
		}
		h = nd.kids[len(nd.kids)-1]
	}
}

// Min returns the smallest key, if any.
func (t *Tree) Min() (float64, bool) {
	if t.n == 0 {
		return 0, false
	}
	h := t.root
	for {
		nd := t.store.Read(h)
		if nd.leaf {
			return nd.keys[0], true
		}
		h = nd.kids[0]
	}
}

// CountGE returns |{e ∈ tree : e ≥ k}|.
func (t *Tree) CountGE(k float64) int {
	h := t.root
	cnt := 0
	for {
		nd := t.store.Read(h)
		if nd.leaf {
			i := leafInsertPos(nd, k)
			return cnt + len(nd.keys) - i
		}
		i := childFor(nd, k)
		for j := i + 1; j < len(nd.counts); j++ {
			cnt += nd.counts[j]
		}
		h = nd.kids[i]
	}
}

// RankDesc returns the rank of k as defined in §3.1: |{e' ≥ k}|. The
// largest element has rank 1. k need not be present (the result is then
// the rank k would have counting strictly greater elements, plus nothing
// for itself).
func (t *Tree) RankDesc(k float64) int { return t.CountGE(k) }

// SelectDesc returns the key of descending rank r (1 = largest).
func (t *Tree) SelectDesc(r int) (float64, bool) {
	if r < 1 || r > t.n {
		return 0, false
	}
	// Descending rank r = ascending index n-r (0-based).
	idx := t.n - r
	h := t.root
	for {
		nd := t.store.Read(h)
		if nd.leaf {
			return nd.keys[idx], true
		}
		for i, c := range nd.counts {
			if idx < c {
				h = nd.kids[i]
				break
			}
			idx -= c
		}
	}
}

// CountRange returns |{e : lo ≤ e ≤ hi}|.
func (t *Tree) CountRange(lo, hi float64) int {
	if lo > hi {
		return 0
	}
	return t.CountGE(lo) - t.CountGE(math.Nextafter(hi, math.Inf(1)))
}

// MaxInRange returns the largest key in [lo, hi], if any. This is the
// "slightly augmented" range-max capability §3.3 requires of the B-tree
// on G_{u1} ∪ … ∪ G_{uf}; with max-key routers it descends one path.
func (t *Tree) MaxInRange(lo, hi float64) (float64, bool) {
	if t.n == 0 || lo > hi {
		return 0, false
	}
	h := t.root
	// cand tracks the best predecessor-of-hi seen on the descent: when we
	// descend into child i, the max key of child i-1 (router i-1, which is
	// < hi by choice of i) is the answer should child i hold nothing ≤ hi.
	cand, haveCand := 0.0, false
	for {
		nd := t.store.Read(h)
		if nd.leaf {
			i := leafInsertPos(nd, math.Nextafter(hi, math.Inf(1))) - 1
			if i >= 0 {
				if nd.keys[i] >= lo {
					return nd.keys[i], true
				}
				return 0, false
			}
			if haveCand && cand >= lo {
				return cand, true
			}
			return 0, false
		}
		i := childFor(nd, hi)
		if i > 0 {
			cand, haveCand = nd.keys[i-1], true
		}
		h = nd.kids[i]
	}
}

// AscendRange visits keys in [lo, hi] in ascending order until visit
// returns false.
func (t *Tree) AscendRange(lo, hi float64, visit func(float64) bool) {
	t.ascend(t.root, lo, hi, visit)
}

func (t *Tree) ascend(h em.Handle, lo, hi float64, visit func(float64) bool) bool {
	nd := t.store.Read(h)
	if nd.leaf {
		for _, k := range nd.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return false
			}
			if !visit(k) {
				return false
			}
		}
		return true
	}
	for i, kid := range nd.kids {
		if nd.keys[i] < lo {
			continue
		}
		if !t.ascend(kid, lo, hi, visit) {
			return false
		}
		if nd.keys[i] > hi {
			return false
		}
	}
	return true
}

// Keys returns all keys ascending (test/debug helper; costs a full scan).
func (t *Tree) Keys() []float64 {
	out := make([]float64, 0, t.n)
	t.AscendRange(math.Inf(-1), math.Inf(1), func(k float64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// CheckInvariants validates structural invariants (router correctness,
// counts, ordering, occupancy) without charging I/Os. Test helper.
func (t *Tree) CheckInvariants() error {
	var rec func(h em.Handle, depth int) (int, float64, error)
	rec = func(h em.Handle, depth int) (int, float64, error) {
		nd := t.store.Peek(h)
		if nd.leaf {
			if depth != t.height {
				return 0, 0, fmt.Errorf("leaf at depth %d, height %d", depth, t.height)
			}
			for i := 1; i < len(nd.keys); i++ {
				if nd.keys[i-1] >= nd.keys[i] {
					return 0, 0, fmt.Errorf("leaf keys out of order")
				}
			}
			return len(nd.keys), maxKeyOf(nd), nil
		}
		if len(nd.kids) != len(nd.keys) || len(nd.kids) != len(nd.counts) {
			return 0, 0, fmt.Errorf("internal arity mismatch")
		}
		total := 0
		for i, kid := range nd.kids {
			c, mx, err := rec(kid, depth+1)
			if err != nil {
				return 0, 0, err
			}
			if c != nd.counts[i] {
				return 0, 0, fmt.Errorf("count mismatch: have %d want %d", nd.counts[i], c)
			}
			if mx != nd.keys[i] {
				return 0, 0, fmt.Errorf("router mismatch: have %v want %v", nd.keys[i], mx)
			}
			if i > 0 && nd.keys[i-1] >= nd.keys[i] {
				return 0, 0, fmt.Errorf("routers out of order")
			}
			total += c
		}
		return total, maxKeyOf(nd), nil
	}
	total, _, err := rec(t.root, 1)
	if err != nil {
		return err
	}
	if total != t.n {
		return fmt.Errorf("size mismatch: counted %d, Len=%d", total, t.n)
	}
	return nil
}
