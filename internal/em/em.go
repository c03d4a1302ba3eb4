// Package em simulates the external-memory (EM) model of Aggarwal and
// Vitter, the cost model in which the paper's bounds are stated.
//
// A machine has M words of internal memory and a disk of unbounded size
// formatted into blocks of B words. An I/O transfers one block between
// disk and memory; CPU computation is free. The package provides:
//
//   - Disk: the simulated device. It owns an I/O meter and a buffer pool
//     of M/B frames with LRU replacement. Object payloads live in Go
//     memory, but every access to an object that is not resident in the
//     pool charges one read I/O per block the object spans, and every
//     eviction of a dirty object charges one write I/O per block —
//     exactly the accounting of the model. The LRU is an intrusive
//     doubly linked list threaded through a slot array (map from key to
//     slot index, freed slots reused), so a pool access allocates
//     nothing once the array has grown to the pool's residency.
//   - Store[T]: a typed object store bound to a Disk. Each object reports
//     its size in words; the store derives the number of blocks it spans
//     and enforces capacity invariants declared by callers.
//
// All structures in this repository allocate their nodes through stores
// on a shared Disk so one experiment has a single, coherent I/O meter.
package em

import "fmt"

// Word is the machine word of the model. The paper requires a word of
// Ω(lg n) bits; 64 bits comfortably covers every input size used here.
type Word = uint64

// DefaultB and DefaultM are the block and memory sizes (in words) used
// when a Config field is zero. M = Ω(B) per the model; 16 frames is small
// enough that buffer-pool hits do not mask the asymptotic I/O behaviour.
const (
	DefaultB = 64
	DefaultM = 16 * DefaultB
)

// Config describes an EM machine.
type Config struct {
	// B is the block size in words.
	B int
	// M is the memory size in words. The buffer pool has M/B frames.
	M int
	// WriteThrough, if set, charges write I/Os at write time instead of
	// at eviction time. Accounting totals are identical for workloads
	// that eventually evict everything; write-back (the default) matches
	// the model's "write B words in memory to a disk block" phrasing.
	WriteThrough bool
}

func (c Config) withDefaults() Config {
	if c.B <= 0 {
		c.B = DefaultB
	}
	if c.M <= 0 {
		c.M = DefaultM
	}
	if c.M < 2*c.B {
		// The model demands M ≥ 2B (footnote 2 of the paper).
		c.M = 2 * c.B
	}
	return c
}

// Stats is a snapshot of the I/O meter.
type Stats struct {
	// Reads counts block transfers from disk to memory.
	Reads int64
	// Writes counts block transfers from memory to disk.
	Writes int64
	// Allocs and Frees count object (not block) lifecycle events.
	Allocs int64
	Frees  int64
	// BlocksLive is the number of disk blocks currently occupied.
	BlocksLive int64
	// BlocksPeak is the high-water mark of BlocksLive.
	BlocksPeak int64
}

// IOs returns total block transfers (reads + writes).
func (s Stats) IOs() int64 { return s.Reads + s.Writes }

// Sub returns the delta s - t, leaving the space gauges from s.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:      s.Reads - t.Reads,
		Writes:     s.Writes - t.Writes,
		Allocs:     s.Allocs - t.Allocs,
		Frees:      s.Frees - t.Frees,
		BlocksLive: s.BlocksLive,
		BlocksPeak: s.BlocksPeak,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d ios=%d live=%d peak=%d",
		s.Reads, s.Writes, s.IOs(), s.BlocksLive, s.BlocksPeak)
}

// Handle identifies an object within its Store.
type Handle int64

// NilHandle is the zero, never-allocated handle.
const NilHandle Handle = 0

// resident is one buffer-pool entry: an object currently in memory.
// prev and next link it into the LRU list by slot index.
type resident struct {
	key        poolKey
	span       int32 // blocks occupied while resident (≤ frames)
	prev, next int32
	dirty      bool
}

// lruHead is the sentinel slot: its next is the most recently used
// resident, its prev the least recently used one.
const lruHead int32 = 0

// poolKey names one object on a Disk: its store and its handle. The
// pool's maps key on its packed form, one uint64 with the store id in
// the top storeBits bits and the handle below, so every lookup takes
// the runtime's 64-bit map fast path instead of hashing a padded
// 16-byte struct.
type poolKey struct {
	store  int32
	handle Handle
}

// The packed key's split: 2^28 stores per Disk (a store is created per
// B-tree, so per polylog node and flgroup set) and 2^36 allocations
// per store. NewStore and Alloc panic rather than let a field overflow
// into its neighbour.
const (
	storeBits  = 28
	handleBits = 64 - storeBits
)

func (k poolKey) packed() uint64 { return uint64(k.store)<<handleBits | uint64(k.handle) }

// Disk is a simulated EM machine: meter + buffer pool.
//
// Disk is not safe for concurrent use; the model is sequential and so are
// all algorithms in the paper. Wrap with external locking if needed.
type Disk struct {
	cfg    Config
	stats  Stats
	frames int // pool capacity in blocks

	used    int              // blocks currently resident
	slots   []resident       // slots[lruHead] is the list sentinel
	free    int32            // head of the free-slot chain (via next); 0 = none
	present map[uint64]int32 // packed poolKey → slot

	nextStore int32
	spanOf    map[uint64]int // packed poolKey → live span, for space accounting
}

// NewDisk creates a Disk for the given configuration.
func NewDisk(cfg Config) *Disk {
	cfg = cfg.withDefaults()
	return &Disk{
		cfg:     cfg,
		frames:  cfg.M / cfg.B,
		slots:   make([]resident, 1),
		present: make(map[uint64]int32),
		spanOf:  make(map[uint64]int),
	}
}

// B returns the block size in words.
func (d *Disk) B() int { return d.cfg.B }

// M returns the memory size in words.
func (d *Disk) M() int { return d.cfg.M }

// Frames returns the buffer-pool capacity in blocks.
func (d *Disk) Frames() int { return d.frames }

// Stats returns a snapshot of the I/O meter.
func (d *Disk) Stats() Stats { return d.stats }

// Resize re-derives the buffer pool for a new memory budget of m
// words, applying the same floor as NewDisk (M ≥ 2B, footnote 2 of
// the paper). Shrinking evicts LRU victims until residency fits the
// new frame count, charging write I/Os for dirty evictions exactly as
// any other eviction would — the model's cost of giving memory back.
// The shard maintenance loop uses it to reclaim pools left
// over-provisioned by fleet growth between rebuilds.
func (d *Disk) Resize(m int) {
	if m < 2*d.cfg.B {
		m = 2 * d.cfg.B
	}
	d.cfg.M = m
	d.frames = m / d.cfg.B
	for d.used > d.frames && len(d.present) > 0 {
		d.evictOne()
	}
}

// ResetMeter zeroes the read/write/alloc/free counters, keeping space
// gauges. Used by benches to separate build cost from query cost.
func (d *Disk) ResetMeter() {
	d.stats.Reads, d.stats.Writes = 0, 0
	d.stats.Allocs, d.stats.Frees = 0, 0
}

// DropCache evicts everything from the buffer pool (writing back dirty
// objects), so the next access to any object is a cold read. Benches call
// this to measure cold-cache query costs.
func (d *Disk) DropCache() {
	for len(d.present) > 0 {
		d.evictOne()
	}
}

// SpanFor returns how many blocks an object of size words occupies.
func (d *Disk) SpanFor(words int) int {
	if words <= 0 {
		return 1
	}
	return (words + d.cfg.B - 1) / d.cfg.B
}

// unlink detaches slot i from the LRU list.
func (d *Disk) unlink(i int32) {
	r := &d.slots[i]
	d.slots[r.prev].next = r.next
	d.slots[r.next].prev = r.prev
}

// pushFront links slot i in as the most recently used resident.
func (d *Disk) pushFront(i int32) {
	head := &d.slots[lruHead]
	r := &d.slots[i]
	r.prev, r.next = lruHead, head.next
	d.slots[head.next].prev = i
	head.next = i
}

// admit makes key resident with the given span as the most recently
// used entry, reusing a freed slot when there is one.
func (d *Disk) admit(key poolKey, span int, dirty bool) {
	i := d.free
	if i != lruHead {
		d.free = d.slots[i].next
	} else {
		i = int32(len(d.slots))
		d.slots = append(d.slots, resident{})
	}
	d.slots[i] = resident{key: key, span: int32(span), dirty: dirty}
	d.pushFront(i)
	d.present[key.packed()] = i
	d.used += span
}

// drop removes resident slot i from the pool (no I/O) and frees it.
func (d *Disk) drop(i int32) {
	r := &d.slots[i]
	d.used -= int(r.span)
	delete(d.present, r.key.packed())
	d.unlink(i)
	r.next = d.free
	d.free = i
}

// evict writes back slot i if it is dirty under write-back, then drops
// it.
func (d *Disk) evict(i int32) {
	if r := &d.slots[i]; r.dirty && !d.cfg.WriteThrough {
		d.stats.Writes += int64(r.span)
	}
	d.drop(i)
}

func (d *Disk) evictOne() {
	back := d.slots[lruHead].prev
	if back == lruHead {
		panic("em: buffer pool empty during eviction")
	}
	d.evict(back)
}

func (d *Disk) ensureRoom(span int) {
	for d.used+span > d.frames && len(d.present) > 0 {
		d.evictOne()
	}
}

// touch makes the object resident, charging read I/Os on a miss and
// write I/Os per the write policy. span is the object's current span;
// dirty marks the access as a mutation.
func (d *Disk) touch(key poolKey, span int, dirty bool) {
	if span > d.frames {
		// An object larger than memory cannot be cached; every access
		// streams it. Charge and do not insert.
		d.stats.Reads += int64(span)
		if dirty {
			d.stats.Writes += int64(span)
		}
		return
	}
	if i, ok := d.present[key.packed()]; ok {
		if old := int(d.slots[i].span); old != span {
			// Object grew or shrank while resident; adjust occupancy.
			d.ensureRoomExcept(span-old, i)
			d.used += span - old
			d.slots[i].span = int32(span)
		}
		if dirty {
			if d.cfg.WriteThrough {
				d.stats.Writes += int64(span)
			} else {
				d.slots[i].dirty = true
			}
		}
		d.unlink(i)
		d.pushFront(i)
		return
	}
	d.ensureRoom(span)
	d.stats.Reads += int64(span)
	if dirty && d.cfg.WriteThrough {
		d.stats.Writes += int64(span)
	}
	d.admit(key, span, dirty && !d.cfg.WriteThrough)
}

// ensureRoomExcept evicts from the LRU end, never evicting keep, until
// extra more blocks fit or keep is the only resident.
func (d *Disk) ensureRoomExcept(extra int, keep int32) {
	for d.used+extra > d.frames && len(d.present) > 1 {
		back := d.slots[lruHead].prev
		if back == keep {
			back = d.slots[back].prev
		}
		d.evict(back)
	}
}

// createFresh registers a newly allocated object: it is written in memory
// and will be charged as a write on eviction (write-back) or now
// (write-through). It does not charge a read: the object was produced in
// memory, not loaded.
func (d *Disk) createFresh(key poolKey, span int) {
	d.stats.Allocs++
	d.stats.BlocksLive += int64(span)
	if d.stats.BlocksLive > d.stats.BlocksPeak {
		d.stats.BlocksPeak = d.stats.BlocksLive
	}
	d.spanOf[key.packed()] = span
	if span > d.frames {
		d.stats.Writes += int64(span)
		return
	}
	if _, ok := d.present[key.packed()]; ok {
		panic("em: double allocation of handle")
	}
	d.ensureRoom(span)
	if d.cfg.WriteThrough {
		d.stats.Writes += int64(span)
	}
	d.admit(key, span, !d.cfg.WriteThrough)
}

func (d *Disk) resize(key poolKey, span int) {
	k := key.packed()
	old := d.spanOf[k]
	d.spanOf[k] = span
	d.stats.BlocksLive += int64(span - old)
	if d.stats.BlocksLive > d.stats.BlocksPeak {
		d.stats.BlocksPeak = d.stats.BlocksLive
	}
}

func (d *Disk) release(key poolKey) {
	k := key.packed()
	span := d.spanOf[k]
	delete(d.spanOf, k)
	d.stats.Frees++
	d.stats.BlocksLive -= int64(span)
	if i, ok := d.present[k]; ok {
		d.drop(i)
	}
}

// Store is a typed object store on a Disk. The zero value is unusable;
// create stores with NewStore.
type Store[T any] struct {
	disk   *Disk
	id     int32
	name   string
	sizeOf func(T) int
	next   Handle
	objs   map[Handle]T
}

// NewStore registers a store named name on d. sizeOf reports an object's
// size in words; it decides how many blocks (I/Os) each access costs.
func NewStore[T any](d *Disk, name string, sizeOf func(T) int) *Store[T] {
	if d.nextStore >= 1<<storeBits-1 {
		panic(fmt.Sprintf("em: store %s: more than 2^%d stores on one disk", name, storeBits))
	}
	d.nextStore++
	return &Store[T]{
		disk:   d,
		id:     d.nextStore,
		name:   name,
		sizeOf: sizeOf,
		objs:   make(map[Handle]T),
	}
}

// Disk returns the disk the store is bound to.
func (s *Store[T]) Disk() *Disk { return s.disk }

// Len returns the number of live objects.
func (s *Store[T]) Len() int { return len(s.objs) }

// Alloc stores v as a fresh object and returns its handle.
func (s *Store[T]) Alloc(v T) Handle {
	if s.next >= 1<<handleBits-1 {
		panic(fmt.Sprintf("em: %s: more than 2^%d allocations in one store", s.name, handleBits))
	}
	s.next++
	h := s.next
	s.objs[h] = v
	s.disk.createFresh(poolKey{s.id, h}, s.disk.SpanFor(s.sizeOf(v)))
	return h
}

// Read loads the object (charging I/Os on a pool miss) and returns it.
// The returned value aliases the stored one for pointer-typed T; callers
// that mutate through it must follow with Write to charge the write.
func (s *Store[T]) Read(h Handle) T {
	v, ok := s.objs[h]
	if !ok {
		panic(fmt.Sprintf("em: %s: read of dead handle %d", s.name, h))
	}
	s.disk.touch(poolKey{s.id, h}, s.disk.SpanFor(s.sizeOf(v)), false)
	return v
}

// Write replaces the object's value, charging I/Os per the write policy
// and re-deriving its span from the new size.
func (s *Store[T]) Write(h Handle, v T) {
	if _, ok := s.objs[h]; !ok {
		panic(fmt.Sprintf("em: %s: write of dead handle %d", s.name, h))
	}
	s.objs[h] = v
	key := poolKey{s.id, h}
	span := s.disk.SpanFor(s.sizeOf(v))
	s.disk.resize(key, span)
	s.disk.touch(key, span, true)
}

// Update applies f to the stored object in place; it is Read followed by
// Write with a single pool interaction for each.
func (s *Store[T]) Update(h Handle, f func(*T)) {
	v := s.Read(h)
	f(&v)
	s.Write(h, v)
}

// Free releases the object and its blocks.
func (s *Store[T]) Free(h Handle) {
	if _, ok := s.objs[h]; !ok {
		panic(fmt.Sprintf("em: %s: free of dead handle %d", s.name, h))
	}
	delete(s.objs, h)
	s.disk.release(poolKey{s.id, h})
}

// Peek returns the object without touching the buffer pool or the meter.
// It exists for invariant checkers and debug rendering only; algorithm
// code must use Read.
func (s *Store[T]) Peek(h Handle) T {
	v, ok := s.objs[h]
	if !ok {
		panic(fmt.Sprintf("em: %s: peek of dead handle %d", s.name, h))
	}
	return v
}

// Handles returns all live handles in unspecified order (meter-free;
// for checkers and rebuilds that already account their cost).
func (s *Store[T]) Handles() []Handle {
	hs := make([]Handle, 0, len(s.objs))
	for h := range s.objs {
		hs = append(hs, h)
	}
	return hs
}
