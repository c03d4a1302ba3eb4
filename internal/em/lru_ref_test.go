package em

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
)

// refDisk is the buffer pool as it stood before the intrusive LRU: a
// container/list of *refResident plus a map from key to list element.
// It keeps only what the meter depends on, so replaying one trace
// against it and a real Disk must produce identical Stats and an
// identical recency order at every step.
type refDisk struct {
	cfg     Config
	stats   Stats
	frames  int
	used    int
	lru     *list.List
	present map[poolKey]*list.Element
	spanOf  map[poolKey]int
}

type refResident struct {
	key   poolKey
	span  int
	dirty bool
}

func newRefDisk(cfg Config) *refDisk {
	cfg = cfg.withDefaults()
	return &refDisk{cfg: cfg, frames: cfg.M / cfg.B, lru: list.New(),
		present: map[poolKey]*list.Element{}, spanOf: map[poolKey]int{}}
}

func (d *refDisk) spanFor(words int) int {
	if words <= 0 {
		return 1
	}
	return (words + d.cfg.B - 1) / d.cfg.B
}

func (d *refDisk) evictOne() {
	back := d.lru.Back()
	r := back.Value.(*refResident)
	if r.dirty && !d.cfg.WriteThrough {
		d.stats.Writes += int64(r.span)
	}
	d.used -= r.span
	delete(d.present, r.key)
	d.lru.Remove(back)
}

func (d *refDisk) ensureRoom(span int) {
	for d.used+span > d.frames && d.lru.Len() > 0 {
		d.evictOne()
	}
}

func (d *refDisk) ensureRoomExcept(extra int, keep *list.Element) {
	for d.used+extra > d.frames && d.lru.Len() > 1 {
		back := d.lru.Back()
		if back == keep {
			back = back.Prev()
		}
		r := back.Value.(*refResident)
		if r.dirty && !d.cfg.WriteThrough {
			d.stats.Writes += int64(r.span)
		}
		d.used -= r.span
		delete(d.present, r.key)
		d.lru.Remove(back)
	}
}

func (d *refDisk) touch(key poolKey, span int, dirty bool) {
	if span > d.frames {
		d.stats.Reads += int64(span)
		if dirty {
			d.stats.Writes += int64(span)
		}
		return
	}
	if el, ok := d.present[key]; ok {
		r := el.Value.(*refResident)
		if r.span != span {
			d.ensureRoomExcept(span-r.span, el)
			d.used += span - r.span
			r.span = span
		}
		if dirty {
			if d.cfg.WriteThrough {
				d.stats.Writes += int64(span)
			} else {
				r.dirty = true
			}
		}
		d.lru.MoveToFront(el)
		return
	}
	d.ensureRoom(span)
	d.stats.Reads += int64(span)
	r := &refResident{key: key, span: span}
	if dirty {
		if d.cfg.WriteThrough {
			d.stats.Writes += int64(span)
		} else {
			r.dirty = true
		}
	}
	d.present[key] = d.lru.PushFront(r)
	d.used += span
}

func (d *refDisk) alloc(key poolKey, span int) {
	d.stats.Allocs++
	d.stats.BlocksLive += int64(span)
	d.stats.BlocksPeak = max(d.stats.BlocksPeak, d.stats.BlocksLive)
	d.spanOf[key] = span
	if span > d.frames {
		d.stats.Writes += int64(span)
		return
	}
	d.ensureRoom(span)
	r := &refResident{key: key, span: span, dirty: !d.cfg.WriteThrough}
	if d.cfg.WriteThrough {
		d.stats.Writes += int64(span)
	}
	d.present[key] = d.lru.PushFront(r)
	d.used += span
}

func (d *refDisk) write(key poolKey, span int) {
	d.stats.BlocksLive += int64(span - d.spanOf[key])
	d.stats.BlocksPeak = max(d.stats.BlocksPeak, d.stats.BlocksLive)
	d.spanOf[key] = span
	d.touch(key, span, true)
}

func (d *refDisk) free(key poolKey) {
	d.stats.Frees++
	d.stats.BlocksLive -= int64(d.spanOf[key])
	delete(d.spanOf, key)
	if el, ok := d.present[key]; ok {
		d.used -= el.Value.(*refResident).span
		delete(d.present, key)
		d.lru.Remove(el)
	}
}

func (d *refDisk) resizePool(m int) {
	m = max(m, 2*d.cfg.B)
	d.cfg.M = m
	d.frames = m / d.cfg.B
	for d.used > d.frames && d.lru.Len() > 0 {
		d.evictOne()
	}
}

func (d *refDisk) dropCache() {
	for d.lru.Len() > 0 {
		d.evictOne()
	}
}

// order lists the resident keys from most to least recently used.
func (d *refDisk) order() []poolKey {
	var out []poolKey
	for el := d.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*refResident).key)
	}
	return out
}

// lruOrder lists the Disk's resident keys from most to least recently
// used, checking the back links on the way.
func lruOrder(t *testing.T, d *Disk) []poolKey {
	t.Helper()
	var out []poolKey
	prev := lruHead
	for i := d.slots[lruHead].next; i != lruHead; i = d.slots[i].next {
		if d.slots[i].prev != prev {
			t.Fatalf("slot %d: prev %d, want %d", i, d.slots[i].prev, prev)
		}
		out = append(out, d.slots[i].key)
		prev = i
	}
	if d.slots[lruHead].prev != prev {
		t.Fatalf("sentinel prev %d, want %d", d.slots[lruHead].prev, prev)
	}
	if len(out) != len(d.present) {
		t.Fatalf("list holds %d residents, map %d", len(out), len(d.present))
	}
	return out
}

// TestLRUMatchesListReference replays seeded random traces of Alloc,
// Read, Write (with span growth and shrinkage), Free, Resize and
// DropCache against a Disk and the container/list reference, asserting
// identical Stats and recency order after every step. Object sizes
// range past the pool, so the stream-don't-cache path is exercised.
func TestLRUMatchesListReference(t *testing.T) {
	for _, wt := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			cfg := Config{B: 8, M: 8 * (4 + int(seed)*3), WriteThrough: wt}
			d, ref := NewDisk(cfg), newRefDisk(cfg)
			stores := []*Store[rec]{recStore(d), recStore(d)}
			var live [2][]Handle
			rng := rand.New(rand.NewSource(seed))
			words := func() int {
				if rng.Intn(10) == 0 {
					return rng.Intn(8 * (d.Frames() + 4)) // may exceed the pool
				}
				return rng.Intn(3 * 8)
			}
			for step := 0; step < 4000; step++ {
				si := rng.Intn(2)
				s := stores[si]
				op := rng.Intn(100)
				switch {
				case op < 20 || len(live[si]) == 0:
					w := words()
					h := s.Alloc(rec{words: w})
					ref.alloc(poolKey{s.id, h}, ref.spanFor(w))
					live[si] = append(live[si], h)
				case op < 60:
					h := live[si][rng.Intn(len(live[si]))]
					r := s.Read(h)
					ref.touch(poolKey{s.id, h}, ref.spanFor(r.words), false)
				case op < 85:
					h := live[si][rng.Intn(len(live[si]))]
					w := words()
					s.Write(h, rec{words: w})
					ref.write(poolKey{s.id, h}, ref.spanFor(w))
				case op < 95:
					j := rng.Intn(len(live[si]))
					h := live[si][j]
					s.Free(h)
					ref.free(poolKey{s.id, h})
					live[si] = slices.Delete(live[si], j, j+1)
				case op < 98:
					m := 8 * (2 + rng.Intn(24))
					d.Resize(m)
					ref.resizePool(m)
				default:
					d.DropCache()
					ref.dropCache()
				}
				if got, want := d.Stats(), ref.stats; got != want {
					t.Fatalf("wt=%v seed=%d step %d: stats %+v, reference %+v", wt, seed, step, got, want)
				}
				if d.used != ref.used {
					t.Fatalf("wt=%v seed=%d step %d: used %d, reference %d", wt, seed, step, d.used, ref.used)
				}
				if got, want := lruOrder(t, d), ref.order(); !slices.Equal(got, want) {
					t.Fatalf("wt=%v seed=%d step %d: LRU order %v, reference %v", wt, seed, step, got, want)
				}
			}
		}
	}
}

// TestPoolHitAllocatesNothing: a warm read of a resident object, and a
// miss that evicts into a reused slot, allocate nothing.
func TestPoolHitAllocatesNothing(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 32}) // 4 frames
	s := recStore(d)
	var hs []Handle
	for i := 0; i < 8; i++ {
		hs = append(hs, s.Alloc(rec{words: 8}))
	}
	if a := testing.AllocsPerRun(100, func() { s.Read(hs[7]) }); a != 0 {
		t.Fatalf("hit: %v allocs/op", a)
	}
	i := 0
	if a := testing.AllocsPerRun(100, func() { s.Read(hs[i%8]); i++ }); a != 0 {
		t.Fatalf("miss with eviction: %v allocs/op", a)
	}
}
