//go:build !race

// The race detector instruments allocations, so allocation counts are
// only asserted in normal builds.

package core

import (
	"math/rand"
	"testing"

	"repro/internal/em"
	"repro/internal/point"
	"repro/internal/workload"
)

// TestQueryAllocs guards the read path's allocation budget on a warm
// machine shaped like one benchmark shard: 4096 uniform points, B = 64,
// 256 pool frames, the polylog regime with F = 8 and leaf cap 2048,
// and the benchmark's query mix (0.05–2% of the position domain,
// k ≤ 64). Selection gathers scores into a reused buffer and the pool
// LRU allocates nothing on a hit, so what remains is the decomposition
// and the reported points.
func TestQueryAllocs(t *testing.T) {
	const xMax = 125000 // one eighth of a 1e6 domain
	g := workload.NewGen(1)
	d := em.NewDisk(em.Config{B: 64, M: 256 * 64})
	ix := Bulk(d, Options{
		Regime:   RegimePolylog,
		PolylogF: 8, PolylogLeafCap: 2048,
	}, g.Uniform(4096, xMax))
	// Widths of 0.05–2% of the 1e6 domain, placed inside the shard.
	rng := rand.New(rand.NewSource(2))
	qs := make([]point.Query, 200)
	for i := range qs {
		w := (0.0005 + 0.0195*rng.Float64()) * 1e6
		x1 := rng.Float64() * (xMax - w)
		qs[i] = point.Query{X1: x1, X2: x1 + w, K: 1 + rng.Intn(64)}
	}
	for _, q := range qs {
		ix.Query(q.X1, q.X2, q.K)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(qs), func() {
		q := qs[i%len(qs)]
		i++
		ix.Query(q.X1, q.X2, q.K)
	})
	t.Logf("%.1f allocs per warm query", allocs)
	if allocs > 12 {
		t.Fatalf("%.1f allocs per warm query, budget 12", allocs)
	}
}
