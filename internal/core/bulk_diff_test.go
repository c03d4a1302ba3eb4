package core

import (
	"math/rand"
	"testing"

	"repro/internal/em"
	"repro/internal/point"
	"repro/internal/polylog"
	"repro/internal/verify"
	"repro/internal/workload"
)

// TestBulkMatchesInsertLoopAnswers swaps the bulk-built polylog
// component of one Index for an insert-loop build over the same points
// (polylog.New, then one Insert per point: the construction Bulk
// replaced) and checks that both indexes return identical exact
// answers, equal to the oracle's, on seeded queries before and after
// the same seeded update sequence. Updates keep n inside (N/4, N], so
// no global rebuild replaces the insert-loop component mid-test.
func TestBulkMatchesInsertLoopAnswers(t *testing.T) {
	for _, c := range []struct {
		name string
		b    int
		opt  Options
		n    int
	}{
		{"small", 32, testOpts(), 1500},
		{"shard", 64, Options{Regime: RegimePolylog, PolylogF: 8, PolylogLeafCap: 2048}, 4500},
	} {
		t.Run(c.name, func(t *testing.T) {
			gen := workload.NewGen(11)
			pts := gen.Uniform(c.n, 1e5)
			mk := func() *em.Disk { return em.NewDisk(em.Config{B: c.b, M: 64 * c.b}) }
			bulk := Bulk(mk(), c.opt, pts)
			loop := Bulk(mk(), c.opt, pts)
			loop.poly.FreeAll()
			loop.poly = polylog.New(loop.d, polylog.Options{
				L: loop.KThreshold(), N: loop.N, F: c.opt.PolylogF, LeafCap: c.opt.PolylogLeafCap,
			})
			for _, p := range pts {
				loop.poly.Insert(p)
			}

			live := append([]point.P(nil), pts...)
			compare := func(when string) {
				t.Helper()
				for _, ix := range []*Index{bulk, loop} {
					if err := ix.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
				oracle := verify.NewOracle(live)
				for _, q := range gen.Queries(300, 1e5, 0.001, 0.3, bulk.KThreshold()-1) {
					got, ref := bulk.Query(q.X1, q.X2, q.K), loop.Query(q.X1, q.X2, q.K)
					if err := verify.DiffTopK(got, ref); err != nil {
						t.Fatalf("%s: query %+v differs from the insert-loop index: %v", when, q, err)
					}
					if err := verify.DiffTopK(got, oracle.TopK(q.X1, q.X2, q.K)); err != nil {
						t.Fatalf("%s: query %+v: %v", when, q, err)
					}
				}
			}
			compare("after build")

			rng := rand.New(rand.NewSource(12))
			for step := 0; step < 600; step++ {
				if step%2 == 0 {
					i := rng.Intn(len(live))
					if !bulk.Delete(live[i]) || !loop.Delete(live[i]) {
						t.Fatalf("step %d: delete %v missed", step, live[i])
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				p := point.P{X: 1e5 * rng.Float64(), Score: 2 + rng.Float64()}
				if bulk.Has(p.X) || bulk.HasScore(p.Score) {
					continue
				}
				if err := bulk.Insert(p); err != nil {
					t.Fatal(err)
				}
				if err := loop.Insert(p); err != nil {
					t.Fatal(err)
				}
				live = append(live, p)
			}
			if bulk.N != loop.N || 4*len(live) <= bulk.N {
				t.Fatalf("a global rebuild ran (N=%d, n=%d)", bulk.N, len(live))
			}
			compare("after updates")
		})
	}
}
