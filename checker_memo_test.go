// Tests for the Checker's reads of one database version: the first
// complete read evaluates the resident plan and later reads replay it, a
// read pins its version without holding the checker's lock past that, and
// so a pre-Apply iteration neither blocks writers nor sees their writes.
package cind_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	cindapi "cind"

	"cind/internal/bank"
)

// referenceLines is the per-constraint reference report of db — each
// constraint evaluated alone by its own semantics, CFDs first — one
// violation per line.
func referenceLines(db *cindapi.Database, set *cindapi.ConstraintSet) []string {
	rep := &cindapi.Report{}
	for _, c := range set.CFDs() {
		rep.CFD = append(rep.CFD, c.Violations(db)...)
	}
	for _, c := range set.CINDs() {
		rep.CIND = append(rep.CIND, c.Violations(db)...)
	}
	return reportLines(rep)
}

// streamLines drains chk.Violations into lines.
func streamLines(t *testing.T, chk *cindapi.Checker) []string {
	t.Helper()
	var out []string
	for v, err := range chk.Violations(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v.String())
	}
	return out
}

// detectLines is chk.Detect's report as lines.
func detectLines(t *testing.T, chk *cindapi.Checker) []string {
	t.Helper()
	rep, err := chk.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return reportLines(rep)
}

func assertLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Fatalf("%s: report diverges from the reference:\n--- want (%d)\n%s\n--- got (%d)\n%s", what, len(want), w, len(got), g)
	}
}

// TestCheckerWarmReadsFollowDirectWrites reads a pre-Apply checker cold,
// then warm through Detect and Violations at widths 1 and 4, then after a
// direct insert and a direct delete: every read must be the reference
// report of the database at that moment.
func TestCheckerWarmReadsFollowDirectWrites(t *testing.T) {
	for _, width := range []int{1, 4} {
		set, db := genWorkloadSet(t, 7)
		chk, err := cindapi.NewChecker(db, set, cindapi.WithParallelism(width))
		if err != nil {
			t.Fatal(err)
		}
		readAll := func(step string) []string {
			t.Helper()
			want := referenceLines(db, set)
			for i := range 2 {
				assertLines(t, fmt.Sprintf("width %d, %s, Violations %d", width, step, i), streamLines(t, chk), want)
				assertLines(t, fmt.Sprintf("width %d, %s, Detect %d", width, step, i), detectLines(t, chk), want)
			}
			return want
		}
		before := readAll("initial")
		if len(before) == 0 {
			t.Fatal("workload is clean; the test would prove nothing")
		}
		// Insert a clone of a violating CFD witness with its first Y value
		// moved: a new pair per matching tuple.
		cv := set.CFDs()[0]
		rel := db.Instance(cv.Rel)
		mut := rel.Tuples()[0].Clone()
		mut[rel.Relation().Cols(cv.Y)[0]] = cindapi.Const("moved-by-insert")
		db.Insert(cv.Rel, mut)
		inserted := readAll("insert")
		if strings.Join(inserted, "\n") == strings.Join(before, "\n") {
			t.Fatal("the insert left the report unchanged; the step proves nothing")
		}
		db.Delete(cv.Rel, mut)
		assertLines(t, fmt.Sprintf("width %d, delete", width), readAll("delete"), before)
	}
}

// TestCheckerWithLimitReadsArePrefixes: a limited checker's repeated reads
// are all the full report's prefix, whatever came before them.
func TestCheckerWithLimitReadsArePrefixes(t *testing.T) {
	set, db := genWorkloadSet(t, 21)
	full := referenceLines(db, set)
	if len(full) < 3 {
		t.Fatalf("workload has %d violations; too few to limit", len(full))
	}
	for _, limit := range []int{1, 2, len(full) - 1, len(full), len(full) + 3} {
		chk, err := cindapi.NewChecker(db, set, cindapi.WithLimit(limit))
		if err != nil {
			t.Fatal(err)
		}
		want := full[:min(limit, len(full))]
		for i := range 3 {
			assertLines(t, fmt.Sprintf("limit %d, Violations %d", limit, i), streamLines(t, chk), want)
			assertLines(t, fmt.Sprintf("limit %d, Detect %d", limit, i), detectLines(t, chk), want)
		}
	}
}

// fixDeltas are the deletes that remove v's witness tuples.
func fixDeltas(v cindapi.Violation) []cindapi.Delta {
	if cv, ok := v.AsCFD(); ok {
		return []cindapi.Delta{cindapi.DeleteDelta(cv.CFD.Rel, cv.T1)}
	}
	iv, _ := v.AsCIND()
	return []cindapi.Delta{cindapi.DeleteDelta(iv.CIND.LHSRel, iv.T)}
}

// TestCheckerDetectAndFixBeforeFirstApply is the detect-and-fix idiom on a
// checker that has never applied a delta: Apply from inside a Violations
// loop — the loop's first Apply builds the session — must not deadlock,
// the loop must yield exactly the report of the version it started on,
// and afterwards the checker must report the repaired database. The loop
// runs both cold (the first read of the version) and warm.
func TestCheckerDetectAndFixBeforeFirstApply(t *testing.T) {
	ctx := context.Background()
	for _, warm := range []bool{false, true} {
		for _, width := range []int{1, 4} {
			set, db := genWorkloadSet(t, 21)
			chk, err := cindapi.NewChecker(db, set, cindapi.WithParallelism(width))
			if err != nil {
				t.Fatal(err)
			}
			want := referenceLines(db, set)
			if warm {
				detectLines(t, chk)
			}
			var got []string
			for v, err := range chk.Violations(ctx) {
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, v.String())
				if _, err := chk.Apply(ctx, fixDeltas(v)...); err != nil {
					t.Fatal(err)
				}
			}
			assertLines(t, fmt.Sprintf("warm=%v width %d: in-loop stream", warm, width), got, want)
			if !chk.Incremental() {
				t.Fatal("the in-loop Apply did not build the session")
			}
			after := detectLines(t, chk)
			assertLines(t, fmt.Sprintf("warm=%v width %d: after the loop", warm, width), after, referenceLines(db, set))
			if len(after) >= len(want) {
				t.Fatalf("warm=%v width %d: fixing every violation left %d of %d", warm, width, len(after), len(want))
			}
		}
	}
}

// TestCheckerWriterPassesStalledReader stalls a pre-Apply Violations
// consumer after its first violation and requires an Apply to complete
// meanwhile; released, the consumer must still yield its version's whole
// report.
func TestCheckerWriterPassesStalledReader(t *testing.T) {
	ctx := context.Background()
	for _, warm := range []bool{false, true} {
		sch, set := bankSet(t)
		db := bank.Data(sch)
		chk, err := cindapi.NewChecker(db, set)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceLines(db, set)
		if warm {
			detectLines(t, chk)
		}
		stalled, release := make(chan struct{}), make(chan struct{})
		got := make(chan []string)
		go func() {
			var out []string
			for v, err := range chk.Violations(ctx) {
				if err != nil {
					t.Error(err)
					break
				}
				if out = append(out, v.String()); len(out) == 1 {
					close(stalled)
					<-release
				}
			}
			got <- out
		}()
		<-stalled
		applied := make(chan error)
		go func() {
			_, err := chk.Apply(ctx, cindapi.DeleteDelta("interest", cindapi.Consts("EDI", "UK", "checking", "10.5%")))
			applied <- err
		}()
		select {
		case err := <-applied:
			if err != nil {
				close(release)
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			close(release)
			t.Fatalf("warm=%v: Apply waited on a stalled pre-Apply consumer", warm)
		}
		close(release)
		assertLines(t, fmt.Sprintf("warm=%v: stalled stream", warm), <-got, want)
		assertLines(t, fmt.Sprintf("warm=%v: after the Apply", warm), detectLines(t, chk), referenceLines(db, set))
	}
}
