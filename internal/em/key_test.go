package em

import "testing"

// TestPackedKeyFieldsDoNotOverflow: the last store id and the last
// handle that fit their bit fields are usable and keep distinct packed
// keys; one more of either panics instead of aliasing another object.
func TestPackedKeyFieldsDoNotOverflow(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}

	d := NewDisk(Config{B: 8, M: 64})
	d.nextStore = 1<<storeBits - 2
	last := recStore(d)
	if last.id != 1<<storeBits-1 {
		t.Fatalf("last store id %d", last.id)
	}
	mustPanic("store past the id field", func() { recStore(d) })

	low := recStore(NewDisk(Config{B: 8, M: 64}))
	low.next = 1<<handleBits - 2
	h := low.Alloc(rec{words: 8})
	if h != 1<<handleBits-1 {
		t.Fatalf("last handle %d", h)
	}
	mustPanic("handle past the handle field", func() { low.Alloc(rec{words: 8}) })

	// The extreme fields still name distinct objects.
	keys := map[uint64]poolKey{}
	for _, k := range []poolKey{
		{1, 1}, {1, 1<<handleBits - 1}, {2, 1}, {1<<storeBits - 1, 1}, {1<<storeBits - 1, 1<<handleBits - 1},
	} {
		if prev, dup := keys[k.packed()]; dup {
			t.Fatalf("%v and %v pack to the same key", prev, k)
		}
		keys[k.packed()] = k
	}
	last.Alloc(rec{words: 8})
	if got := d.Stats().BlocksLive; got != 1 {
		t.Fatalf("BlocksLive %d after one allocation", got)
	}
}
