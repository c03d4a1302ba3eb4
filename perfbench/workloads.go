package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	topk "repro"
)

// xMax is the position domain [0, xMax) every workload draws from.
const xMax = 1e6

// spec fixes one workload's shape. Everything the program receives is
// derived from a spec and the seed.
type spec struct {
	name string
	n    int // points loaded at set-up

	shards         int // Sharded shard count (per member on the fleet)
	framesPerShard int // buffer-pool frames per shard; 0 = the whole structure fits

	mixed   bool // 70% TopK / 15% Insert / 15% Delete; otherwise pure TopK
	batched bool // topk.Batched in front of the Sharded (local-mixed)
	members int  // >0: an in-process fleet of members behind a gateway

	setups int // set-ups per run; setup_s is their median

	warm    int // metered pass: unmetered warm-up ops
	metered int // metered pass: metered ops
	probe   int // read workloads: inserts (then as many deletes) metered after the reads

	fresh int // pre-generated fresh points per key owner
}

// The topkd member defaults every workload shares.
const (
	blockWords     = 64
	polylogF       = 8
	polylogLeafCap = 2048
)

func config(framesPerShard, shards int) topk.Config {
	mem := 1 << 22 // fits any structure here
	if framesPerShard > 0 {
		mem = framesPerShard * blockWords * shards
	}
	return topk.Config{
		BlockWords:     blockWords,
		MemoryWords:    mem,
		ForcePolylog:   true,
		PolylogF:       polylogF,
		PolylogLeafCap: polylogLeafCap,
	}
}

var specs = map[string]spec{
	"local-read": {
		name: "local-read", n: 1 << 15, shards: 8, framesPerShard: 256,
		setups: 5, warm: 1000, metered: 3000, probe: 1000, fresh: 2048,
	},
	"local-mixed": {
		name: "local-mixed", n: 1 << 16, shards: 8, framesPerShard: 256,
		mixed: true, batched: true,
		setups: 3, warm: 1000, metered: 10000, fresh: 4096,
	},
	// The fleet's pools hold the whole structure, so its metered pass
	// has no warm-up and query_ios counts the reads that warm them:
	// after a warm-up only a seed-dependent trickle of misses is left.
	"fleet-read": {
		name: "fleet-read", n: 1 << 15, shards: 8, members: 4,
		setups: 7, warm: 0, metered: 3000, probe: 500, fresh: 1024,
	},
}

// scaled shrinks a spec for tests: n and every op count divided by div.
func (s spec) scaled(div int) spec {
	if div <= 1 {
		return s
	}
	s.n /= div
	s.warm /= div
	s.metered /= div
	s.probe /= div
	s.fresh /= div
	s.setups = 1
	return s
}

// The query distribution of e15/e18: selectivity 0.05–2% of the domain,
// k uniform in [1, 64].
const (
	minSel = 0.0005
	maxSel = 0.02
	maxK   = 64
)

type opKind uint8

const (
	opTopK opKind = iota
	opInsert
	opDelete
)

func (k opKind) String() string {
	return [...]string{"topk", "insert", "delete"}[k]
}

// op is one generated operation: a query (x1, x2, k) or an update of p.
type op struct {
	kind   opKind
	x1, x2 float64
	k      int
	p      topk.Result
}

// keyOwner generates one client's op stream. Every owner holds a
// disjoint slice of the points, so concurrent owners never collide:
// an insert takes a fresh point from the owner's queue, a delete
// removes one of the owner's live points and queues it for a later
// re-insert. No op fails by design, and n stays near its start.
type keyOwner struct {
	rng   *rand.Rand
	mixed bool
	live  []topk.Result
	fresh []topk.Result // FIFO
}

func (o *keyOwner) query() op {
	sel := minSel + o.rng.Float64()*(maxSel-minSel)
	w := sel * xMax
	x1 := o.rng.Float64() * (xMax - w)
	return op{kind: opTopK, x1: x1, x2: x1 + w, k: o.rng.IntN(maxK) + 1}
}

// next draws the owner's next op and commits it to the owner's key
// bookkeeping (ops never fail, so generation and execution agree).
func (o *keyOwner) next() op {
	if !o.mixed {
		return o.query()
	}
	r := o.rng.Float64()
	switch {
	case r < 0.70:
		return o.query()
	case r < 0.85 && len(o.fresh) > 0 || len(o.live) == 0:
		return o.insertNext()
	default:
		return o.deleteRandom()
	}
}

func (o *keyOwner) insertNext() op {
	p := o.fresh[0]
	o.fresh = o.fresh[1:]
	o.live = append(o.live, p)
	return op{kind: opInsert, p: p}
}

func (o *keyOwner) deleteRandom() op {
	i := o.rng.IntN(len(o.live))
	p := o.live[i]
	o.live[i] = o.live[len(o.live)-1]
	o.live = o.live[:len(o.live)-1]
	o.fresh = append(o.fresh, p)
	return op{kind: opDelete, p: p}
}

// writeCycle is a read workload's write stream: insert the owner's
// next fresh point, then delete it again, cycling through the queue,
// so n stays within one point of its start.
func (o *keyOwner) writeCycle() func() op {
	i, inserted := 0, false
	return func() op {
		p := o.fresh[i]
		if !inserted {
			inserted = true
			return op{kind: opInsert, p: p}
		}
		inserted = false
		i = (i + 1) % len(o.fresh)
		return op{kind: opDelete, p: p}
	}
}

// opStreams returns the owners' op streams.
func opStreams(owners []*keyOwner) []func() op {
	out := make([]func() op, len(owners))
	for i, o := range owners {
		out[i] = o.next
	}
	return out
}

// writeStreams returns the owners' write cycles.
func writeStreams(owners []*keyOwner) []func() op {
	out := make([]func() op, len(owners))
	for i, o := range owners {
		out[i] = o.writeCycle()
	}
	return out
}

// inputs is everything a run feeds the program, derived from the seed.
type inputs struct {
	pts     []topk.Result // loaded at set-up
	metered []op          // metered pass: warm-up then metered ops
	owners  []*keyOwner   // closed-loop clients' key owners
}

// meteredOwners is the fixed number of key owners the points are cut
// into: one for the metered pass and two for closed-loop clients. It
// does not depend on the host's CPU count, so the metered pass — and
// with it query_ios, update_ios and space_amp — is a function of the
// seed alone.
const meteredOwners = 3

// makeInputs draws the points (distinct positions and scores) and the
// op streams. The same spec and seed give the same inputs.
func makeInputs(s spec, seed uint64) inputs {
	rng := rand.New(rand.NewPCG(seed, 0x70b0))
	usedX := make(map[float64]bool, s.n)
	usedS := make(map[float64]bool, s.n)
	draw := func() topk.Result {
		for {
			x, sc := rng.Float64()*xMax, rng.Float64()
			if !usedX[x] && !usedS[sc] {
				usedX[x], usedS[sc] = true, true
				return topk.Result{X: x, Score: sc}
			}
		}
	}
	in := inputs{pts: make([]topk.Result, s.n)}
	for i := range in.pts {
		in.pts[i] = draw()
	}
	owners := make([]*keyOwner, meteredOwners)
	for c := range owners {
		o := &keyOwner{rng: rand.New(rand.NewPCG(seed, uint64(c+1))), mixed: s.mixed}
		for i := c; i < len(in.pts); i += meteredOwners {
			o.live = append(o.live, in.pts[i])
		}
		for i := 0; i < s.fresh; i++ {
			o.fresh = append(o.fresh, draw())
		}
		owners[c] = o
	}
	m := owners[0]
	for i := 0; i < s.warm+s.metered; i++ {
		in.metered = append(in.metered, m.next())
	}
	if s.probe > 0 {
		probe := m.fresh[:s.probe]
		for _, p := range probe {
			in.metered = append(in.metered, op{kind: opInsert, p: p})
		}
		for _, p := range probe {
			in.metered = append(in.metered, op{kind: opDelete, p: p})
		}
	}
	in.owners = owners[1:]
	return in
}

// shardQueries draws count queries of the workload distribution whose
// interval lies inside [lo, hi): the queries one shard answers alone.
func shardQueries(seed uint64, lo, hi float64, count int) []op {
	rng := rand.New(rand.NewPCG(seed, 0xc0e))
	out := make([]op, count)
	for i := range out {
		w := (minSel + rng.Float64()*(maxSel-minSel)) * xMax
		if w > hi-lo {
			w = hi - lo
		}
		x1 := lo + rng.Float64()*(hi-lo-w)
		out[i] = op{kind: opTopK, x1: x1, x2: x1 + w, k: rng.IntN(maxK) + 1}
	}
	return out
}

// byScore returns pts sorted by ascending score.
func byScore(pts []topk.Result) []topk.Result {
	out := append([]topk.Result(nil), pts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Score < out[j].Score })
	return out
}

func lookupSpec(name string) (spec, error) {
	s, ok := specs[name]
	if !ok {
		return spec{}, fmt.Errorf("unknown workload %q (have local-read, local-mixed, fleet-read)", name)
	}
	return s, nil
}
