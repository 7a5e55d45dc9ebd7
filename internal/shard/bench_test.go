package shard

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	cind "cind"

	"cind/internal/gen"
	"cind/internal/stream"
	"cind/internal/types"
)

// benchWorkload builds a ~total-tuple instance over a generated schema.
// CFDRatio 1 keeps every relation free of CIND RHS replication, and F 0
// makes every domain infinite so synthetic partition-key values are legal.
// Partitioned relations get the bulk of the tuples with distinct partition
// projections (so the plan actually spreads them), plus a few witness
// clones mutated off-key to seed real violations.
func benchWorkload(tb testing.TB, total int) (*cind.ConstraintSet, *cind.Database, int) {
	tb.Helper()
	w := gen.New(gen.Config{Relations: 12, Card: 48, CFDRatio: 1.0, Consistent: true, Seed: 7})
	set, err := cind.SpecSet(&cind.Spec{Schema: w.Schema, CFDs: w.CFDs, CINDs: w.CINDs})
	if err != nil {
		tb.Fatal(err)
	}
	ref, err := NewPlan(set, 2)
	if err != nil {
		tb.Fatal(err)
	}

	var parted []string
	for _, rel := range w.Schema.Relations() {
		if ref.Placement(rel.Name()).Partitioned {
			parted = append(parted, rel.Name())
		}
	}
	if len(parted) == 0 {
		tb.Fatal("generated workload has no partitioned relations; tune gen.Config")
	}

	db := w.Witness.Clone()
	per := total / len(parted)
	n := 0
	for _, name := range parted {
		in := db.Instance(name)
		witness := in.Tuples()[0]
		cols := ref.Placement(name).Cols
		for i := 0; i < per; i++ {
			t := witness.Clone()
			for _, c := range cols {
				t[c] = types.C(fmt.Sprintf("k%d-%d", c, i))
			}
			if in.Insert(t) {
				n++
			}
		}
	}
	// One dirty clone per CFD: keep the witness's X values (same shard by
	// construction — the partition projection is a subset of X) but break
	// a Y attribute outside X, so the (witness, clone) pair violates.
	// Bounded count keeps violations linear, not quadratic.
	dirty := 0
	for _, c := range set.CFDs() {
		rel, ok := w.Schema.Relation(c.Rel)
		if !ok {
			continue
		}
		yCol := -1
		for _, y := range c.Y {
			inX := false
			for _, x := range c.X {
				if x == y {
					inX = true
					break
				}
			}
			if !inX {
				yCol = rel.Cols([]string{y})[0]
				break
			}
		}
		if yCol < 0 {
			continue
		}
		in := db.Instance(c.Rel)
		t := in.Tuples()[0].Clone()
		t[yCol] = types.C("dirty-" + c.ID)
		if in.Insert(t) {
			n++
			dirty++
		}
	}
	if dirty == 0 {
		tb.Fatal("no dirty clones inserted; benchmark would be vacuous")
	}
	return set, db, n
}

// BenchmarkShardedDetect measures scatter-gather detection throughput at
// 1, 2 and 4 shards. The host has a single core, so wall time cannot show
// cluster speedup; instead each iteration times every shard's detection
// separately and reports the simulated-cluster critical path — the slowest
// shard plus the k-way merge — as tuples/s. That is the number a real N
// -node fleet is bounded by.
func BenchmarkShardedDetect(b *testing.B) {
	set, db, total := benchWorkload(b, 100_000)
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			plan, err := NewPlan(set, n)
			if err != nil {
				b.Fatal(err)
			}
			dbs, order := benchScatter(b, plan, db)
			var critTotal time.Duration
			var violations int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var slowest time.Duration
				sources := make([]Source, len(dbs))
				for s, sdb := range dbs {
					// Each simulated node has its own heap on a real
					// fleet; collect the previous node's garbage so its
					// GC pause doesn't land in this node's timed region.
					runtime.GC()
					t0 := time.Now()
					vs := detectOwned(plan, s, sdb)
					if d := time.Since(t0); d > slowest {
						slowest = d
					}
					sources[s] = &sliceSource{vs: vs}
				}
				runtime.GC()
				t0 := time.Now()
				merged, err := Merge(sources, ownedKeyOf(plan, order),
					func(*stream.Violation) bool { return true })
				if err != nil {
					b.Fatal(err)
				}
				critTotal += slowest + time.Since(t0)
				violations = merged
			}
			if violations == 0 {
				b.Fatal("benchmark workload produced no violations; it is vacuous")
			}
			crit := critTotal / time.Duration(b.N)
			b.ReportMetric(float64(total)/crit.Seconds(), "tuples/s")
			b.ReportMetric(float64(violations), "violations")
		})
	}
}

// benchScatter is scatter without the testing.T plumbing cost mattering —
// it runs outside the timed region anyway.
func benchScatter(tb testing.TB, p *Plan, db *cind.Database) ([]*cind.Database, *Order) {
	tb.Helper()
	return scatter(tb, p, db)
}
