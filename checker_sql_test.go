// Tests for WithSQLBackend: the Checker must behave identically under the
// SQL backend — Detect, Violations streaming, WithLimit, context
// cancellation, and the session takeover after Apply.
package cind_test

import (
	"context"
	"errors"
	"testing"

	cindapi "cind"

	"cind/internal/bank"
)

func sqlChecker(t *testing.T, db *cindapi.Database, set *cindapi.ConstraintSet, opts ...cindapi.CheckerOption) *cindapi.Checker {
	t.Helper()
	sqlDB, err := cindapi.OpenSQLBackend("mem:")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sqlDB.Close() })
	chk, err := cindapi.NewChecker(db, set, append(opts, cindapi.WithSQLBackend(sqlDB))...)
	if err != nil {
		t.Fatal(err)
	}
	return chk
}

func reportsEqual(t *testing.T, got, want *cindapi.Report) {
	t.Helper()
	if got.Total() != want.Total() || got.String() != want.String() {
		t.Fatalf("reports differ:\nsql:\n%s\nmemory:\n%s", got, want)
	}
}

func TestSQLBackendCheckerParity(t *testing.T) {
	ctx := context.Background()
	check := func(name string, db *cindapi.Database, set *cindapi.ConstraintSet) {
		t.Run(name, func(t *testing.T) {
			plain, err := cindapi.NewChecker(db, set)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Detect(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sqlChecker(t, db, set).Detect(ctx)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, got, want)
		})
	}
	sch, set := bankSet(t)
	check("bank-dirty", bank.Data(sch), set)
	check("bank-clean", bank.CleanData(sch), set)
	genSet, genDB := genWorkloadSet(t, 11)
	check("generated-dirty", genDB, genSet)
}

func TestSQLBackendViolationsStream(t *testing.T) {
	ctx := context.Background()
	sch, set := bankSet(t)
	db := bank.Data(sch)
	chk := sqlChecker(t, db, set)
	want, err := chk.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []cindapi.Violation
	for v, err := range chk.Violations(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, v)
	}
	if len(streamed) != want.Total() {
		t.Fatalf("streamed %d violations, report has %d", len(streamed), want.Total())
	}
	for i, v := range want.Violations() {
		if streamed[i].String() != v.String() {
			t.Fatalf("stream order diverges at %d: %v vs %v", i, streamed[i], v)
		}
	}
	// Early break is clean.
	for range chk.Violations(ctx) {
		break
	}
}

func TestSQLBackendLimit(t *testing.T) {
	ctx := context.Background()
	sch, set := bankSet(t)
	db := bank.Data(sch)
	plainFull, err := mustChecker(t, db, set).Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plainFull.Total() < 2 {
		t.Fatalf("bank data has %d violations, need at least 2", plainFull.Total())
	}
	for _, limit := range []int{1, 2, plainFull.Total() + 5} {
		got, err := sqlChecker(t, db, set, cindapi.WithLimit(limit)).Detect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, got, plainFull.Truncate(limit))
		n := 0
		for _, err := range sqlChecker(t, db, set, cindapi.WithLimit(limit)).Violations(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		if wantN := min(limit, plainFull.Total()); n != wantN {
			t.Fatalf("limit %d streamed %d violations, want %d", limit, n, wantN)
		}
	}
}

func TestSQLBackendContextCancellation(t *testing.T) {
	sch, set := bankSet(t)
	chk := sqlChecker(t, bank.Data(sch), set)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := chk.Detect(ctx); err == nil {
		t.Fatal("cancelled Detect succeeded")
	}
	sawErr := false
	for _, err := range chk.Violations(ctx) {
		if err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("cancelled Violations yielded no error")
	}
}

// TestSQLBackendViolationsCancelMidStream: cancelling while a SQL-backed
// stream yields ends it with one final (zero Violation, ctx.Err()) pair,
// as on every other path.
func TestSQLBackendViolationsCancelMidStream(t *testing.T) {
	sch, set := bankSet(t)
	chk := sqlChecker(t, bank.Data(sch), set)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n, errs := 0, 0
	var last error
	for v, err := range chk.Violations(ctx) {
		if err != nil {
			if v.Constraint() != nil {
				t.Fatalf("the error pair carries a violation: %s", v)
			}
			errs++
			last = err
			continue
		}
		if errs > 0 {
			t.Fatal("a violation followed the error pair")
		}
		n++
		cancel()
	}
	if n != 1 || errs != 1 || !errors.Is(last, context.Canceled) {
		t.Fatalf("cancelled after the first violation: got %d violations and %d errors (last %v), want 1 and 1 context.Canceled",
			n, errs, last)
	}
}

// TestSQLBackendSessionTakeover: after the first Apply the maintained
// session serves reports, under the SQL backend exactly as without it.
func TestSQLBackendSessionTakeover(t *testing.T) {
	ctx := context.Background()
	sch, set := bankSet(t)
	chk := sqlChecker(t, bank.Data(sch), set)
	before, err := chk.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chk.Apply(ctx); err != nil { // empty Apply builds the session
		t.Fatal(err)
	}
	if !chk.Incremental() {
		t.Fatal("Apply did not build the session")
	}
	after, err := chk.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, after, before)
}

func mustChecker(t *testing.T, db *cindapi.Database, set *cindapi.ConstraintSet, opts ...cindapi.CheckerOption) *cindapi.Checker {
	t.Helper()
	chk, err := cindapi.NewChecker(db, set, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return chk
}
