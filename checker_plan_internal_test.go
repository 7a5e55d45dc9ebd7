package cind

import (
	"context"
	"testing"

	"cind/internal/bank"
	"cind/internal/detect"
)

// residentPlan is the test hook onto the checker's resident detection plan.
func (c *Checker) residentPlan() *detect.Plan {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	return c.plan
}

// bankChecker returns a checker over the paper's Figure 1 instance and
// the constraints of Figures 2 and 4, and the checker's database.
func bankChecker(t *testing.T, opts ...CheckerOption) (*Checker, *Database) {
	t.Helper()
	sch := bank.Schema()
	var cs []Constraint
	for _, c := range bank.CFDs(sch) {
		cs = append(cs, c)
	}
	for _, c := range bank.CINDs(sch) {
		cs = append(cs, c)
	}
	db := bank.Data(sch)
	chk, err := NewChecker(db, MustConstraintSet(sch, cs...), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return chk, db
}

// TestCheckerPlanLifetime follows the resident plan through a checker's
// life: built by the first read, reused while the database is unchanged,
// rebuilt after a direct write, and released by the first Apply, after
// which reads never build one again.
func TestCheckerPlanLifetime(t *testing.T) {
	ctx := context.Background()
	chk, db := bankChecker(t)
	if chk.residentPlan() != nil {
		t.Fatal("a new checker holds a plan before its first read")
	}
	read := func() {
		t.Helper()
		if _, err := chk.Detect(ctx); err != nil {
			t.Fatal(err)
		}
		for _, err := range chk.Violations(ctx) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	read()
	first := chk.residentPlan()
	if first == nil {
		t.Fatal("the first read left no plan behind")
	}
	read()
	if chk.residentPlan() != first {
		t.Fatal("a read of an unchanged database rebuilt the plan")
	}
	db.Insert("interest", Consts("LON", "UK", "saving", "4.5%"))
	read()
	if p := chk.residentPlan(); p == nil || p == first {
		t.Fatal("a read after a direct write did not rebuild the plan")
	}
	if _, err := chk.Apply(ctx); err != nil {
		t.Fatal(err)
	}
	if chk.residentPlan() != nil {
		t.Fatal("the first Apply did not release the plan")
	}
	read()
	if chk.residentPlan() != nil {
		t.Fatal("a read after Apply built a plan")
	}
}

// TestCheckerSQLBackendBuildsNoPlan: a checker on the SQL backend detects
// through SQL and never codes the relations, and its versions never recur.
func TestCheckerSQLBackendBuildsNoPlan(t *testing.T) {
	ctx := context.Background()
	h, err := OpenSQLBackend("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	chk, _ := bankChecker(t, WithSQLBackend(h))
	rep, err := chk.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 2 {
		t.Fatalf("SQL backend found %d violations on Figure 1, want 2", rep.Total())
	}
	for _, err := range chk.Violations(ctx) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if chk.residentPlan() != nil {
		t.Fatal("a checker on the SQL backend built a plan")
	}
	// Every pin runs the queries afresh: no version recurs, so nothing
	// may be keyed on one.
	a, errA := chk.Pin(ctx)
	b, errB := chk.Pin(ctx)
	if errA != nil || errB != nil || a.Recurs() || a == b {
		t.Fatalf("SQL backend pins: recurs %v, equal %v (%v, %v); want distinct versions that do not recur", a.Recurs(), a == b, errA, errB)
	}
}

// TestCheckerPinsSessionVersions: after the first Apply every read pins
// the session's version, a plan like the one before it; reads of one
// version share its plan, so their Versions are equal, and an Apply that
// changes the database makes the next read pin a new one.
func TestCheckerPinsSessionVersions(t *testing.T) {
	ctx := context.Background()
	chk, db := bankChecker(t)
	pin := func() Version {
		t.Helper()
		v, err := chk.Pin(ctx)
		if err != nil || v.plan == nil || v.rep != nil || !v.Recurs() {
			t.Fatalf("Pin = (%+v, %v), want a plan", v, err)
		}
		return v
	}
	if _, err := chk.Apply(ctx); err != nil {
		t.Fatal(err)
	}
	first := pin()
	if pin() != first {
		t.Fatal("two reads of one version pinned different plans")
	}
	if _, err := chk.Apply(ctx, DeleteDelta("checking", Consts("no", "such", "tuple", "at", "all"))); err != nil {
		t.Fatal(err)
	}
	if pin() != first {
		t.Fatal("an Apply that changed nothing ended the version")
	}
	if _, err := chk.Apply(ctx, DeleteDelta("interest", Consts("EDI", "UK", "checking", "10.5%"))); err != nil {
		t.Fatal(err)
	}
	next := pin()
	if next == first || first.plan.Current(db) || !next.plan.Current(db) {
		t.Fatal("the Apply did not end the version it changed")
	}
}
