package detect

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cind/internal/cfd"
	"cind/internal/instance"
	"cind/internal/pattern"
	"cind/internal/schema"
)

// TestSessionBulkRefillRecomputesOnce fills one X bucket in one Apply and
// empties it in a second, with every pair of the bucket violating, and
// reads off the session's pairs counter how many pairs bucket
// recomputation enumerated. A batch recomputes a touched bucket once, from
// its final rows: n(n+1)/2 pairs for the fill (per delta it would be about
// n³/6) and none for the emptying.
func TestSessionBulkRefillRecomputesOnce(t *testing.T) {
	const n = 400
	d := schema.Infinite("d")
	rel := schema.MustRelation("r", schema.Attribute{Name: "a", Dom: d},
		schema.Attribute{Name: "b", Dom: d}, schema.Attribute{Name: "k", Dom: d})
	sch, err := schema.New(rel)
	if err != nil {
		t.Fatal(err)
	}
	// One X bucket (a = x) and one Y partition (b = 1) that fails the
	// constant pattern: every pair i <= j of the bucket violates.
	phi := cfd.MustNew(sch, "phi", "r", []string{"a"}, []string{"b"},
		[]cfd.Row{{LHS: pattern.Tup(pattern.Wild), RHS: pattern.Tup(pattern.Sym("c"))}})
	w := &streamWorkload{name: "refill", cfds: []*cfd.CFD{phi}}

	db := instance.NewDatabase(sch)
	sess := NewSession(db, w.cfds, nil)
	ins, del := make([]Delta, n), make([]Delta, n)
	for i := range n {
		tu := instance.Consts("x", "1", fmt.Sprint(i))
		ins[i], del[i] = Ins("r", tu), Del("r", tu)
	}
	prev := sess.Report()
	for _, step := range []struct {
		name  string
		batch []Delta
		pairs int
	}{{"fill", ins, n * (n + 1) / 2}, {"empty", del, 0}} {
		before := sess.pairs
		diff, err := sess.Apply(step.batch...)
		if err != nil {
			t.Fatal(err)
		}
		if pairs := sess.pairs - before; pairs != step.pairs {
			t.Fatalf("%s: recomputation enumerated %d pairs, want %d (one pass over the final bucket)", step.name, pairs, step.pairs)
		}
		got := sess.Report()
		if want := recompute(db, w); !resultsEqual(got, want) {
			t.Fatalf("%s: session reports %d violations, batch %d", step.name, got.Total(), want.Total())
		}
		if msg := checkDiffConsistent(prev, got, diff); msg != "" {
			t.Fatalf("%s: inconsistent diff: %s", step.name, msg)
		}
		prev = got
	}
	if prev.Total() != 0 {
		t.Fatalf("the emptied bucket still reports %d violations", prev.Total())
	}
}

// batchGen draws the batches of TestSessionDifferentialBatches: random
// batches of 1–8 deltas, and, about one batch in four each, a batch that
// deletes and re-inserts a violating tuple between random deltas, or one
// that empties a violating CFD's X bucket and refills it in reverse order.
// It counts the special batches it drew, so the test can insist on them.
type batchGen struct {
	w                *streamWorkload
	reinserts, fills int
}

func (g *batchGen) next(rng *rand.Rand, db *instance.Database, prev *Report) []Delta {
	random := func(k int) []Delta {
		b := make([]Delta, k)
		for i := range b {
			b[i] = randDelta(rng, g.w, db)
		}
		return b
	}
	switch r := rng.Intn(4); {
	case r == 0 && prev.Total() > 0:
		v := prev.Violations()[rng.Intn(prev.Total())]
		rel, tu := v.Relation(), v.Witness()[0]
		g.reinserts++
		b := append(random(rng.Intn(3)), Del(rel, tu.Clone()))
		b = append(b, random(rng.Intn(3))...)
		return append(b, Ins(rel, tu.Clone()))
	case r == 1 && len(prev.CFD) > 0:
		v := prev.CFD[rng.Intn(len(prev.CFD))]
		in := db.Instance(v.CFD.Rel)
		cols := in.Relation().Cols(v.CFD.X)
		key := instance.Tuple(v.T1.Project(cols))
		var bucket []instance.Tuple
		for _, tu := range in.Tuples() {
			if instance.Tuple(tu.Project(cols)).Eq(key) {
				bucket = append(bucket, tu.Clone())
			}
		}
		g.fills++
		var b []Delta
		for _, tu := range bucket {
			b = append(b, Del(v.CFD.Rel, tu))
		}
		for i := len(bucket) - 1; i >= 0; i-- {
			b = append(b, Ins(v.CFD.Rel, bucket[i]))
		}
		return b
	default:
		return random(1 + rng.Intn(8))
	}
}

// TestSessionDifferentialBatches is the batch mode of the differential
// harness: random batches of 1–8 deltas, delete-and-re-insert batches and
// bucket refills, each checked against the batch engine and for a
// consistent Diff.
func TestSessionDifferentialBatches(t *testing.T) {
	scripts, steps, genSeeds := 12, 40, []int64{1, 2, 3}
	if testing.Short() {
		scripts, genSeeds = 6, []int64{1}
	}
	ws := []*streamWorkload{bankStream()}
	for _, seed := range genSeeds {
		ws = append(ws, genStream(seed))
	}
	for _, w := range ws {
		t.Run(w.name, func(t *testing.T) {
			g := &batchGen{w: w}
			for s := range scripts {
				runDifferential(t, w, int64(3000+s), steps, g.next)
			}
			if g.reinserts == 0 || g.fills == 0 {
				t.Fatalf("the scripts drew %d re-insert and %d refill batches; both must occur", g.reinserts, g.fills)
			}
		})
	}
}

// TestSessionSeedEqualsApply: a session seeded over a loaded database and
// sessions seeded empty and then fed the same tuples — one batch per
// relation, or all of them in one batch — publish identical versions, and
// what the feeding added nets to the seeded report.
func TestSessionSeedEqualsApply(t *testing.T) {
	// The generated witness is clean: dirty it with random tuples.
	gw := genStream(4)
	genDB := func() *instance.Database {
		db, rng := gw.freshDB(), rand.New(rand.NewSource(4))
		for range 40 {
			db.Insert(gw.randTuple(rng))
		}
		return db
	}
	dirty := func() *instance.Database { db, _, _ := scaledDirtyBank(200); return db }
	_, dcfds, dcinds := scaledDirtyBank(200)
	for _, w := range []*streamWorkload{
		bankStream(),
		{name: gw.name, cfds: gw.cfds, cinds: gw.cinds, freshDB: genDB},
		{name: "dirty", cfds: dcfds, cinds: dcinds, freshDB: dirty},
	} {
		t.Run(w.name, func(t *testing.T) {
			db := w.freshDB()
			seeded := NewSession(db, w.cfds, w.cinds)
			want := seeded.Report()
			if want.Total() == 0 {
				t.Fatal("the workload is clean; seeding and feeding would agree trivially")
			}
			var perRel [][]Delta
			for _, r := range db.Schema().Relations() {
				var b []Delta
				for _, tu := range db.Instance(r.Name()).Tuples() {
					b = append(b, Ins(r.Name(), tu))
				}
				perRel = append(perRel, b)
			}
			for _, mode := range []string{"per-relation", "one-batch"} {
				batches := perRel
				if mode == "one-batch" {
					batches = [][]Delta{nil}
					for _, b := range perRel {
						batches[0] = append(batches[0], b...)
					}
				}
				fedDB := instance.NewDatabase(db.Schema())
				fed := NewSession(fedDB, w.cfds, w.cinds)
				net := map[string]int{}
				for _, b := range batches {
					diff, err := fed.Apply(b...)
					if err != nil {
						t.Fatal(err)
					}
					for k, n := range violationKeys(&diff.Added) {
						net[k] += n
					}
					for k, n := range violationKeys(&diff.Removed) {
						net[k] -= n
					}
					if mode == "one-batch" && !diff.Removed.Clean() {
						t.Fatalf("%s: feeding an empty session removed %d violations", mode, diff.Removed.Total())
					}
				}
				for k, n := range net {
					if n == 0 {
						delete(net, k)
					}
				}
				if !reflect.DeepEqual(net, violationKeys(want)) {
					t.Fatalf("%s: the fed session's diffs net to %d violations, the seeded report has %d", mode, len(net), want.Total())
				}
				for _, width := range []int{1, 4} {
					for _, limit := range []int{0, 1, 3} {
						opts := Options{Parallel: width, Limit: limit}
						a, err := seeded.Plan().Run(context.Background(), opts)
						if err != nil {
							t.Fatal(err)
						}
						b, err := fed.Plan().Run(context.Background(), opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(a.Violations(), b.Violations()) {
							t.Fatalf("%s: width %d limit %d: the fed version reports %d violations, the seeded %d",
								mode, width, limit, b.Total(), a.Total())
						}
					}
				}
			}
		})
	}
}
