// Package heap provides the max-heap machinery of the §2 query
// algorithm: heap concatenation (Figure 2 of the paper) and extraction
// of the t largest keys from a heap-ordered structure.
//
// The paper invokes Frederickson's 1993 algorithm, which extracts the
// top t of a binary max-heap in O(t) CPU time. In the EM model CPU is
// free; SelectTop runs a best-first search with an in-memory priority
// queue that expands at most t nodes and therefore performs O(t) I/Os —
// the bound §2 needs (the paper cites Frederickson only to keep the CPU
// cost linear; see DESIGN.md, substitution 2). Heap nodes are navigated
// through the Source interface so that the structure of §2 (the tree T̂
// with pilot representatives as keys) can expose itself as a heap
// without materializing one.
//
// The package also provides External, a concrete array-embedded binary
// max-heap stored in disk blocks with Floyd's linear-time make-heap, the
// "linear-time make-heap algorithm" of footnote 4, used to concatenate
// the heaps rooted at the nodes of Π (Figure 2) and in experiment E12.
package heap

import (
	"cmp"
	stdheap "container/heap"
	"slices"

	"repro/internal/em"
)

// Entry is a heap element: an opaque reference and its sort key.
type Entry struct {
	Ref int64
	Key float64
}

// Source exposes a max-heap-ordered forest: every child's key is ≤ its
// parent's. Implementations charge their own I/Os (typically one block
// read per Children call).
type Source interface {
	// Roots returns the forest's root entries.
	Roots() []Entry
	// Children returns the child entries of ref.
	Children(ref int64) []Entry
}

// pq is an in-memory max-PQ of entries (CPU-side, free in the model).
type pq []Entry

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].Key > p[j].Key }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(Entry)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	x := old[n-1]
	*p = old[:n-1]
	return x
}

// SelectTop returns the t largest entries reachable from src, in
// descending key order (fewer if the heap is smaller). It expands
// exactly one node per emitted entry, so the I/O cost is O(t) times the
// per-node access cost of src.
func SelectTop(src Source, t int) []Entry {
	if t <= 0 {
		return nil
	}
	var frontier pq
	for _, e := range src.Roots() {
		frontier = append(frontier, e)
	}
	stdheap.Init(&frontier)
	out := make([]Entry, 0, t)
	for len(out) < t && frontier.Len() > 0 {
		e := stdheap.Pop(&frontier).(Entry)
		out = append(out, e)
		for _, c := range src.Children(e.Ref) {
			stdheap.Push(&frontier, c)
		}
	}
	return out
}

// Forest merges several sources into one (the trivial side of Figure 2:
// the concatenated heap H behaves exactly like the forest of the heaps
// H(v), v ∈ Π). Refs are namespaced by source index.
type Forest struct {
	Sources []Source
}

const forestShift = 40 // source index in high bits, ref in low bits

// SplitRef decomposes a Forest ref into its source index and the
// source's own ref, for callers that need to map selected entries back
// to the source they came from.
func SplitRef(ref int64) (source int, sourceRef int64) {
	return int(ref >> forestShift), ref & (1<<forestShift - 1)
}

// Roots implements Source.
func (f *Forest) Roots() []Entry {
	var out []Entry
	for i, s := range f.Sources {
		for _, e := range s.Roots() {
			out = append(out, Entry{Ref: int64(i)<<forestShift | e.Ref, Key: e.Key})
		}
	}
	return out
}

// Children implements Source.
func (f *Forest) Children(ref int64) []Entry {
	i := ref >> forestShift
	var out []Entry
	for _, e := range f.Sources[i].Children(ref & (1<<forestShift - 1)) {
		out = append(out, Entry{Ref: i<<forestShift | e.Ref, Key: e.Key})
	}
	return out
}

// External is an array-embedded binary max-heap on disk. The entry array
// is chunked into blocks of B() entries each; accessing entry i costs a
// block I/O for chunk i/B on a cold buffer pool.
type External struct {
	store *em.Store[[]Entry]
	chunk int // entries per chunk
	ids   []em.Handle
	n     int
}

// chunkWords is the size of a chunk in words (2 words per entry).
func chunkWords(es []Entry) int { return 2 * len(es) }

// NewExternal builds an External heap holding the given entries,
// heap-ordered with Floyd's bottom-up make-heap (O(n/B) I/Os when the
// buffer pool holds the working set; O(n) node touches regardless, each
// O(1/B) amortized with blocked layout).
func NewExternal(d *em.Disk, name string, entries []Entry) *External {
	h := &External{
		store: em.NewStore(d, name, chunkWords),
		chunk: d.B() / 2,
		n:     len(entries),
	}
	if h.chunk < 1 {
		h.chunk = 1
	}
	buf := append([]Entry(nil), entries...)
	// Floyd's make-heap in memory (CPU free), then write out in chunks.
	for i := len(buf)/2 - 1; i >= 0; i-- {
		siftDown(buf, i)
	}
	for i := 0; i < len(buf); i += h.chunk {
		end := i + h.chunk
		if end > len(buf) {
			end = len(buf)
		}
		h.ids = append(h.ids, h.store.Alloc(append([]Entry(nil), buf[i:end]...)))
	}
	return h
}

func siftDown(buf []Entry, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(buf) && buf[l].Key > buf[m].Key {
			m = l
		}
		if r < len(buf) && buf[r].Key > buf[m].Key {
			m = r
		}
		if m == i {
			return
		}
		buf[i], buf[m] = buf[m], buf[i]
		i = m
	}
}

// Len returns the number of entries.
func (h *External) Len() int { return h.n }

// at reads entry i, charging a block I/O on a pool miss.
func (h *External) at(i int) Entry {
	return h.store.Read(h.ids[i/h.chunk])[i%h.chunk]
}

// Roots implements Source: refs are array indices.
func (h *External) Roots() []Entry {
	if h.n == 0 {
		return nil
	}
	e := h.at(0)
	return []Entry{{Ref: 0, Key: e.Key}}
}

// Children implements Source.
func (h *External) Children(ref int64) []Entry {
	var out []Entry
	for _, c := range []int64{2*ref + 1, 2*ref + 2} {
		if c < int64(h.n) {
			e := h.at(int(c))
			out = append(out, Entry{Ref: c, Key: e.Key})
		}
	}
	return out
}

// Payload returns the entry stored at heap position ref (its original
// Ref field, which Roots/Children replace with positions).
func (h *External) Payload(ref int64) Entry { return h.at(int(ref)) }

// Free releases all chunks.
func (h *External) Free() {
	for _, id := range h.ids {
		h.store.Free(id)
	}
	h.ids = nil
	h.n = 0
}

// CheckHeapOrder verifies the max-heap property (meter-free test helper).
func (h *External) CheckHeapOrder() bool {
	for i := 1; i < h.n; i++ {
		if h.store.Peek(h.ids[i/h.chunk])[i%h.chunk].Key >
			h.store.Peek(h.ids[(i-1)/2/h.chunk])[((i-1)/2)%h.chunk].Key {
			return false
		}
	}
	return true
}

// Concat builds the concatenation of Figure 2: an External binary
// max-heap over the roots of the given sources. Selecting from the
// returned ConcatHeap explores root entries through the small heap and
// then descends into the original sources.
func Concat(d *em.Disk, name string, sources []Source) *ConcatHeap {
	f := &Forest{Sources: sources}
	roots := f.Roots()
	return &ConcatHeap{top: NewExternal(d, name, roots), forest: f}
}

// ConcatHeap is the result of Concat: a two-layer heap whose upper layer
// is a materialized binary heap over the forest's roots and whose lower
// layers are the forest's own subtrees.
type ConcatHeap struct {
	top    *External
	forest *Forest
}

// refs ≥ concatLow address forest nodes; below, positions in top.
const concatLow = int64(1) << 62

// Roots implements Source.
func (c *ConcatHeap) Roots() []Entry { return c.top.Roots() }

// Children implements Source. A top-layer node's children are its two
// heap children plus the forest children of the root it carries.
func (c *ConcatHeap) Children(ref int64) []Entry {
	if ref >= concatLow {
		var out []Entry
		for _, e := range c.forest.Children(ref - concatLow) {
			out = append(out, Entry{Ref: e.Ref + concatLow, Key: e.Key})
		}
		return out
	}
	out := c.top.Children(ref)
	carried := c.top.Payload(ref)
	for _, e := range c.forest.Children(carried.Ref) {
		out = append(out, Entry{Ref: e.Ref + concatLow, Key: e.Key})
	}
	return out
}

// Free releases the materialized top layer.
func (c *ConcatHeap) Free() { c.top.Free() }

// TopKeys is a convenience for tests: the t largest keys of src, sorted
// descending.
func TopKeys(src Source, t int) []float64 {
	es := SelectTop(src, t)
	keys := make([]float64, len(es))
	for i, e := range es {
		keys[i] = e.Key
	}
	slices.SortFunc(keys, func(a, b float64) int { return cmp.Compare(b, a) })
	return keys
}
