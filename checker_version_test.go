// Tests for the Checker's reads after Apply: every read evaluates the
// session's version through its plan, so Detect and Violations are the
// reference report at every width and limit, and a pinned stream keeps
// its version whatever the session does to its coded relations meanwhile.
package cind_test

import (
	"context"
	"fmt"
	"testing"

	cindapi "cind"
)

// freshTuple is like with every value replaced by one no other tuple
// holds, so it shares no projection group with any.
func freshTuple(like cindapi.Tuple, tag string, i int) cindapi.Tuple {
	tu := like.Clone()
	for j := range tu {
		tu[j] = cindapi.Const(fmt.Sprintf("%s%d.%d", tag, i, j))
	}
	return tu
}

// churnDeltas is a batch of n insert-then-delete pairs of fresh tuples in
// rel: the database is left as it was, and the session holds n more dead
// rows.
func churnDeltas(rel string, like cindapi.Tuple, tag string, n int) []cindapi.Delta {
	ds := make([]cindapi.Delta, 0, 2*n)
	for i := range n {
		tu := freshTuple(like, tag, i)
		ds = append(ds, cindapi.InsertDelta(rel, tu), cindapi.DeleteDelta(rel, tu))
	}
	return ds
}

// TestCheckerReadsAfterApplyMatchReference applies one script to checkers
// at widths 1 and 4, unlimited and at limits 1, k and k+3, and after every
// batch requires each checker's Violations and Detect, twice over, to be
// the reference report's prefix. The script inserts, deletes, deletes and
// re-inserts a tuple in one batch, and churns enough rows through the
// session (more dead rows than live, and over 4096) to compact it.
func TestCheckerReadsAfterApplyMatchReference(t *testing.T) {
	ctx := context.Background()
	set, db0 := genWorkloadSet(t, 7)
	k := len(referenceLines(db0, set))
	type reader struct {
		chk   *cindapi.Checker
		db    *cindapi.Database
		limit int
	}
	var readers []reader
	for _, width := range []int{1, 4} {
		for _, limit := range []int{0, 1, k, k + 3} {
			s, db := genWorkloadSet(t, 7)
			chk, err := cindapi.NewChecker(db, s, cindapi.WithParallelism(width), cindapi.WithLimit(limit))
			if err != nil {
				t.Fatal(err)
			}
			readers = append(readers, reader{chk, db, limit})
		}
	}

	cv := set.CFDs()[0]
	rel := db0.Instance(cv.Rel)
	ycol := rel.Relation().Cols(cv.Y)[0]
	like := rel.Tuples()[0].Clone()
	var script [][]cindapi.Delta
	for i := range 3 { // inserts: each a new pair with every X-equal tuple
		mut := like.Clone()
		mut[ycol] = cindapi.Const(fmt.Sprintf("moved-%d", i))
		script = append(script, []cindapi.Delta{cindapi.InsertDelta(cv.Rel, mut)})
	}
	for _, c := range set.CINDs() { // deletes that may strand demands
		if rhs := db0.Instance(c.RHSRel).Tuples(); len(rhs) > 0 && len(script) < 6 {
			script = append(script, []cindapi.Delta{cindapi.DeleteDelta(c.RHSRel, rhs[len(rhs)-1].Clone())})
		}
	}
	script = append(script, []cindapi.Delta{cindapi.DeleteDelta(cv.Rel, like), cindapi.InsertDelta(cv.Rel, like)})
	for i := range 3 {
		script = append(script, churnDeltas(cv.Rel, like, fmt.Sprintf("churn%d-", i), 1500))
	}
	script = append(script, []cindapi.Delta{cindapi.DeleteDelta(cv.Rel, like)})

	for step, batch := range script {
		for _, r := range readers {
			if _, err := r.chk.Apply(ctx, batch...); err != nil {
				t.Fatal(err)
			}
		}
		full := referenceLines(readers[0].db, set) // every reader's db is equal
		for _, r := range readers {
			want := full
			if r.limit > 0 {
				want = want[:min(r.limit, len(want))]
			}
			for i := range 2 {
				what := fmt.Sprintf("step %d, limit %d, read %d", step, r.limit, i)
				assertLines(t, what+", Violations", streamLines(t, r.chk), want)
				assertLines(t, what+", Detect", detectLines(t, r.chk), want)
			}
		}
	}
}

// TestCheckerPinnedVersionOutlivesInLoopApply streams a session version
// and, at its first violation, applies a batch that either outgrows the
// capacity of the coded relation's rows or compacts the session: the loop
// must yield exactly the version it pinned, and the next read the new one.
func TestCheckerPinnedVersionOutlivesInLoopApply(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"past capacity", "compaction"} {
		set, db := genWorkloadSet(t, 7)
		chk, err := cindapi.NewChecker(db, set, cindapi.WithParallelism(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chk.Apply(ctx); err != nil {
			t.Fatal(err)
		}
		cv := set.CFDs()[0]
		rel := db.Instance(cv.Rel)
		like := rel.Tuples()[0]
		var batch []cindapi.Delta
		if name == "compaction" {
			batch = churnDeltas(cv.Rel, like, "churn", 5000)
		} else {
			// Twice the relation's size in fresh rows: past any spare
			// capacity an append-grown slice of the current rows has.
			for i := range 2*rel.Len() + 1 {
				batch = append(batch, cindapi.InsertDelta(cv.Rel, freshTuple(like, "grow", i)))
			}
		}
		want := referenceLines(db, set)
		if len(want) < 2 {
			t.Fatalf("%s: only %d violations; the loop would end before the Apply matters", name, len(want))
		}
		var got []string
		for v, err := range chk.Violations(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			if got = append(got, v.String()); len(got) == 1 {
				if _, err := chk.Apply(ctx, batch...); err != nil {
					t.Fatal(err)
				}
			}
		}
		assertLines(t, name+": the pinned loop", got, want)
		assertLines(t, name+": after the loop", detectLines(t, chk), referenceLines(db, set))
	}
}
