package detect

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cind/internal/instance"
)

// churn is a batch of n insert-then-delete pairs of fresh checking tuples:
// it leaves the database as it was and n dead rows in the session.
func churn(tag string, n int) []Delta {
	ds := make([]Delta, 0, 2*n)
	for i := range n {
		tu := instance.Consts(fmt.Sprintf("%s%d", tag, i), "Churn", "addr", "555", "EDI")
		ds = append(ds, Ins("checking", tu), Del("checking", tu))
	}
	return ds
}

// assertVersionReads checks every read of the session's current version
// against the batch engine over db: Run at widths 1 and 4, unlimited and
// at limits 1, k and k+3, and Each at both widths, both before and after
// the version's first read; and that the version is published once.
func assertVersionReads(t *testing.T, step string, sess *Session, db *instance.Database, w *streamWorkload, k int) {
	t.Helper()
	want := recompute(db, w)
	v := sess.Plan()
	for _, width := range []int{1, 4} {
		for _, limit := range []int{0, 1, k, k + 3} {
			got, err := v.Run(context.Background(), Options{Parallel: width, Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			if cut := want.Truncate(limit); !reflect.DeepEqual(got.Violations(), cut.Violations()) {
				t.Fatalf("%s: width %d limit %d: Run reports %d violations, batch %d", step, width, limit, got.Total(), cut.Total())
			}
		}
		var got []Violation
		if err := v.Each(context.Background(), Options{Parallel: width}, func(x Violation) bool {
			got = append(got, x)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != want.Total() || len(got) > 0 && !reflect.DeepEqual(got, want.Violations()) {
			t.Fatalf("%s: width %d: Each yields %d violations, batch %d", step, width, len(got), want.Total())
		}
	}
	if sess.Plan() != v {
		t.Fatalf("%s: a read of an unchanged session published a second version", step)
	}
	if !v.Current(db) {
		t.Fatalf("%s: the current version is not Current", step)
	}
}

// TestSessionVersionsMatchBatch drives a script of inserts, deletes, a
// delete and re-insert in one batch, and churn that compacts the session,
// reading every version through its plan after every batch.
func TestSessionVersionsMatchBatch(t *testing.T) {
	w := bankStream()
	db := w.freshDB()
	sess := NewSession(db, w.cfds, w.cinds)
	rng := rand.New(rand.NewSource(7))
	var script [][]Delta
	for range 12 {
		var b []Delta
		for range 5 {
			b = append(b, randDelta(rng, w, db))
		}
		script = append(script, b)
	}
	k := 3
	step := 0
	apply := func(b []Delta) {
		t.Helper()
		before := sess.Plan()
		if _, err := sess.Apply(b...); err != nil {
			t.Fatal(err)
		}
		step++
		assertVersionReads(t, fmt.Sprintf("step %d", step), sess, db, w, k)
		if (sess.Plan() == before) != before.Current(db) {
			t.Fatalf("step %d: the version changed without the database, or the other way round", step)
		}
	}
	assertVersionReads(t, "seed", sess, db, w, k)
	for _, b := range script[:6] {
		apply(b)
	}
	// Delete and re-insert in one batch: an empty diff, a reordered report.
	moved := db.Instance("checking").Tuples()[0].Clone()
	apply([]Delta{Del("checking", moved), Ins("checking", moved)})
	rows := len(sess.rels["checking"].tuples)
	for i := range 3 {
		apply(churn(fmt.Sprintf("c%d-", i), 1500))
	}
	if got := len(sess.rels["checking"].tuples); got > rows {
		t.Fatalf("churn left %d checking rows resident (from %d); compaction did not run", got, rows)
	}
	for _, b := range script[6:] {
		apply(b)
	}
}

// TestSessionPinnedVersionOutlivesApply pins a version, starts streaming
// it, and applies a batch from inside the loop while another goroutine
// keeps reading the same version: the stream and the reader must see
// exactly the pinned report. The batch either appends within the coded
// relation's capacity, past it, or compacts.
func TestSessionPinnedVersionOutlivesApply(t *testing.T) {
	fresh := func(tag string, n int) []Delta {
		ds := make([]Delta, n)
		for i := range ds {
			ds[i] = Ins("checking", instance.Consts(fmt.Sprintf("%s%d", tag, i), "Cal", "addr9", "777", "SFO"))
		}
		return ds
	}
	// Each case checks that its batch did what it names to the resident
	// checking relation: orig is the session's coded relation before the
	// Apply, rows its rows then.
	cases := []struct {
		name  string
		batch func(t *testing.T, sess *Session) []Delta
		check func(t *testing.T, sess *Session, orig *codedRel, rows []instance.Tuple)
	}{
		{"within capacity", func(t *testing.T, sess *Session) []Delta {
			if cr := sess.rels["checking"]; cap(cr.tuples) == len(cr.tuples) {
				t.Fatal("no spare capacity to append within")
			}
			return fresh("in", 1)
		}, func(t *testing.T, sess *Session, orig *codedRel, rows []instance.Tuple) {
			if &orig.tuples[0] != &rows[0] {
				t.Fatal("the in-capacity append moved the coded rows")
			}
		}},
		{"past capacity", func(t *testing.T, sess *Session) []Delta {
			cr := sess.rels["checking"]
			return fresh("past", cap(cr.tuples)-len(cr.tuples)+1)
		}, func(t *testing.T, sess *Session, orig *codedRel, rows []instance.Tuple) {
			if &orig.tuples[0] == &rows[0] {
				t.Fatal("the append did not outgrow the coded rows' capacity")
			}
		}},
		{"compaction", func(*testing.T, *Session) []Delta { return churn("cmp", 5000) },
			func(t *testing.T, sess *Session, orig *codedRel, rows []instance.Tuple) {
				if sess.rels["checking"] == orig {
					t.Fatal("the churn did not compact the session")
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := bankStream()
			db := w.freshDB()
			sess := NewSession(db, w.cfds, w.cinds)
			// Grow checking by appends, so its coded rows have spare capacity.
			if _, err := sess.Apply(fresh("grow", 33)...); err != nil {
				t.Fatal(err)
			}
			want := recompute(db, w).Violations()
			if len(want) < 2 {
				t.Fatalf("only %d violations; the stream would end before the Apply matters", len(want))
			}
			v := sess.Plan()
			orig := sess.rels["checking"]
			rows := orig.tuples
			batch := tc.batch(t, sess)

			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() { // a concurrent reader of the pinned version
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					rep, err := v.Run(context.Background(), Options{})
					if err != nil || !reflect.DeepEqual(rep.Violations(), want) {
						t.Error("a concurrent read of the pinned version diverged")
						return
					}
				}
			}()
			var got []Violation
			err := v.Each(context.Background(), Options{Parallel: 4}, func(x Violation) bool {
				if got = append(got, x); len(got) == 1 {
					if _, err := sess.Apply(batch...); err != nil {
						t.Error(err)
					}
				}
				return true
			})
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("the pinned stream yielded %d violations, its version has %d", len(got), len(want))
			}
			tc.check(t, sess, orig, rows)
			if got, want := sess.Report(), recompute(db, w); !resultsEqual(got, want) {
				t.Fatalf("after the Apply: session %d violations, batch %d", got.Total(), want.Total())
			}
		})
	}
}
