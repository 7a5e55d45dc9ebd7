// Integration tests exercising the public facade end to end, the way a
// downstream user would: parse a constraint file, load CSV data, detect
// violations, check consistency, and reason about implication.
package cind_test

import (
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cindapi "cind"

	"cind/internal/bank"
)

// loadBankSpec parses testdata/bank/bank.cind (generated from the paper's
// Figures 2 and 4).
func loadBankSpec(t testing.TB) *cindapi.Spec {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "bank", "bank.cind"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cindapi.ParseSpec(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// loadBankCSVs loads every Figure 1 CSV into a database over the spec's
// schema.
func loadBankCSVs(t testing.TB, spec *cindapi.Spec) *cindapi.Database {
	t.Helper()
	db := cindapi.NewDatabase(spec.Schema)
	for _, rel := range []string{"interest", "saving", "checking", "account_NYC", "account_EDI"} {
		f, err := os.Open(filepath.Join("testdata", "bank", rel+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		err = cindapi.LoadCSV(db, rel, f, true)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// kindSet gathers per-kind constraint slices into a ConstraintSet, CFDs
// first.
func kindSet(tb testing.TB, sch *cindapi.Schema, cfds []*cindapi.CFD, cinds []*cindapi.CIND) *cindapi.ConstraintSet {
	tb.Helper()
	set, err := cindapi.SpecSet(&cindapi.Spec{Schema: sch, CFDs: cfds, CINDs: cinds})
	if err != nil {
		tb.Fatal(err)
	}
	return set
}

// TestEndToEndDetection is the full Example 1.2 pipeline through the
// facade: the two paper errors (t10 vs ψ6, t12 vs ϕ3) are found in the CSV
// data, and nothing else.
func TestEndToEndDetection(t *testing.T) {
	spec := loadBankSpec(t)
	if len(spec.CFDs) != 3 || len(spec.CINDs) != 8 {
		t.Fatalf("spec has %d CFDs, %d CINDs", len(spec.CFDs), len(spec.CINDs))
	}
	db := loadBankCSVs(t, spec)
	rep := detectAll(t, db, kindSet(t, spec.Schema, spec.CFDs, spec.CINDs))
	if rep.Total() != 2 {
		t.Fatalf("violations = %d, want 2:\n%s", rep.Total(), rep)
	}
	out := rep.String()
	if !strings.Contains(out, "10.5%") {
		t.Errorf("ϕ3 violation (t12) missing from:\n%s", out)
	}
	if !strings.Contains(out, "I. Stark") {
		t.Errorf("ψ6 violation (t10) missing from:\n%s", out)
	}
}

// TestEndToEndConsistency checks the parsed constraint set through both
// Section 5 algorithms.
func TestEndToEndConsistency(t *testing.T) {
	spec := loadBankSpec(t)
	ans := cindapi.CheckConsistency(spec.Schema, spec.CFDs, spec.CINDs,
		cindapi.CheckOptions{K: 40, Seed: 5})
	if !ans.Consistent {
		t.Fatal("the bank constraints are consistent")
	}
	ans = cindapi.RandomCheckConsistency(spec.Schema, spec.CFDs, spec.CINDs,
		cindapi.CheckOptions{K: 40, Seed: 5})
	if !ans.Consistent {
		t.Fatal("RandomChecking must also find the witness")
	}
}

// TestEndToEndImplication reproduces Example 3.3 through the facade using
// the reparsed constraints.
func TestEndToEndImplication(t *testing.T) {
	spec := loadBankSpec(t)
	goal, err := cindapi.NewCIND(spec.Schema, "ex33", "account_EDI",
		[]string{"at"}, nil, "interest", []string{"at"}, nil,
		[]cindapi.CINDRow{{
			LHS: []cindapi.Symbol{cindapi.Wild},
			RHS: []cindapi.Symbol{cindapi.Wild},
		}})
	if err != nil {
		t.Fatal(err)
	}
	out := cindapi.DecideImplication(spec.Schema, spec.CINDs, goal, cindapi.ImplicationOptions{})
	if out.Verdict != cindapi.Implied {
		t.Fatalf("Example 3.3 verdict = %v (%s)", out.Verdict, out.Reason)
	}
	if out.Proof == nil || len(out.Proof.Steps) == 0 {
		t.Fatal("proof missing")
	}
}

// TestEndToEndWitness builds the Theorem 3.2 witness through the facade.
func TestEndToEndWitness(t *testing.T) {
	spec := loadBankSpec(t)
	db, err := cindapi.Witness(spec.Schema, spec.CINDs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if db.IsEmpty() {
		t.Fatal("witness must be nonempty")
	}
	if rep := detectAll(t, db, kindSet(t, spec.Schema, nil, spec.CINDs)); !rep.Clean() {
		t.Fatalf("witness violates Σ:\n%s", rep)
	}
}

// TestEndToEndMinimalCover drops a planted redundancy through the facade.
func TestEndToEndMinimalCover(t *testing.T) {
	spec := loadBankSpec(t)
	sch := spec.Schema
	weak, err := cindapi.NewCIND(sch, "weak3", "saving", []string{"ab"}, []string{"an"},
		"interest", []string{"ab"}, nil,
		[]cindapi.CINDRow{{
			LHS: []cindapi.Symbol{cindapi.Wild, cindapi.Sym("01")},
			RHS: []cindapi.Symbol{cindapi.Wild},
		}})
	if err != nil {
		t.Fatal(err)
	}
	sigma := append(append([]*cindapi.CIND(nil), spec.CINDs...), weak)
	cover := cindapi.MinimalCover(sch, sigma, cindapi.ImplicationOptions{})
	if len(cover) >= len(sigma) {
		t.Fatalf("cover did not shrink: %d -> %d", len(sigma), len(cover))
	}
	for _, c := range cover {
		if c.ID == "weak3" {
			t.Fatal("the planted redundancy must be dropped")
		}
	}
}

// TestEndToEndRoundTrip marshals and reparses the spec, then re-runs
// detection to confirm semantics survive serialisation.
func TestEndToEndRoundTrip(t *testing.T) {
	spec := loadBankSpec(t)
	back, err := cindapi.ParseSpec(cindapi.MarshalSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	db := loadBankCSVs(t, back)
	rep := detectAll(t, db, kindSet(t, back.Schema, back.CFDs, back.CINDs))
	if rep.Total() != 2 {
		t.Fatalf("round-tripped detection found %d violations, want 2", rep.Total())
	}
}

// TestEndToEndGeneratedWorkload runs the generator + checker loop through
// the facade, the Section 6 experiment in miniature.
func TestEndToEndGeneratedWorkload(t *testing.T) {
	w := cindapi.GenerateWorkload(cindapi.WorkloadConfig{
		Relations: 8, Card: 120, Consistent: true, Seed: 21,
	})
	if w.Witness == nil {
		t.Fatal("consistent workloads carry a witness")
	}
	if rep := detectAll(t, w.Witness, kindSet(t, w.Schema, w.CFDs, w.CINDs)); !rep.Clean() {
		t.Fatalf("generator ground truth broken:\n%s", rep)
	}
	ans := cindapi.CheckConsistency(w.Schema, w.CFDs, w.CINDs, cindapi.CheckOptions{Seed: 21})
	if !ans.Consistent {
		t.Fatal("Checking must verify the generated workload")
	}
}

// TestTestdataMatchesBankPackage guards the checked-in testdata against
// drift from the canonical in-code fixtures.
func TestTestdataMatchesBankPackage(t *testing.T) {
	spec := loadBankSpec(t)
	sch := bank.Schema()
	for i, want := range bank.CINDs(sch) {
		if spec.CINDs[i].String() != want.String() {
			t.Errorf("CIND %d drifted:\nfile: %s\ncode: %s", i, spec.CINDs[i], want)
		}
	}
	for i, want := range bank.CFDs(sch) {
		if spec.CFDs[i].String() != want.String() {
			t.Errorf("CFD %d drifted:\nfile: %s\ncode: %s", i, spec.CFDs[i], want)
		}
	}
}

// TestEndToEndChecker is the full Example 1.2 pipeline through the new
// unified surface: parse the constraint file into a ConstraintSet, load the
// CSV data, and find the two paper errors through a Checker — batch,
// streamed, and after the fixture delta log cures them.
func TestEndToEndChecker(t *testing.T) {
	ctx := context.Background()
	src, err := os.ReadFile(filepath.Join("testdata", "bank", "bank.cind"))
	if err != nil {
		t.Fatal(err)
	}
	set, err := cindapi.ParseConstraints(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 11 || len(set.CFDs()) != 3 || len(set.CINDs()) != 8 {
		t.Fatalf("set has %d constraints (%d CFDs, %d CINDs)", set.Len(), len(set.CFDs()), len(set.CINDs()))
	}

	db := cindapi.NewDatabase(set.Schema())
	for _, rel := range []string{"interest", "saving", "checking", "account_NYC", "account_EDI"} {
		f, err := os.Open(filepath.Join("testdata", "bank", rel+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		err = cindapi.LoadCSV(db, rel, f, true)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	chk, err := cindapi.NewChecker(db, set)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := chk.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 2 {
		t.Fatalf("violations = %d, want the paper's 2:\n%s", rep.Total(), rep)
	}
	streamed := 0
	for v, err := range chk.Violations(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if v.Constraint() == nil || len(v.Witness()) == 0 {
			t.Fatalf("streamed violation missing accessors: %s", v)
		}
		streamed++
	}
	if streamed != 2 {
		t.Fatalf("stream yielded %d violations, want 2", streamed)
	}

	// The fixture delta log cures both errors through Apply.
	for _, d := range readBankDeltas(t) {
		if _, err := chk.Apply(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = chk.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("stream should end clean, got %s", rep)
	}
}

// readBankDeltas parses the testdata/bank/deltas.log fixture.
func readBankDeltas(t testing.TB) []cindapi.Delta {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "bank", "deltas.log"))
	if err != nil {
		t.Fatal(err)
	}
	var out []cindapi.Delta
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := csv.NewReader(strings.NewReader(line)).Read()
		if err != nil {
			t.Fatalf("delta log line %q: %v", line, err)
		}
		tu := make(cindapi.Tuple, len(rec)-2)
		for i, v := range rec[2:] {
			tu[i] = cindapi.Const(v)
		}
		if rec[0] == "+" {
			out = append(out, cindapi.InsertDelta(rec[1], tu))
		} else {
			out = append(out, cindapi.DeleteDelta(rec[1], tu))
		}
	}
	return out
}

// TestEndToEndIncrementalStream replays testdata/bank/deltas.log through
// Checker.Apply — the cindviolate -stream pipeline — and checks the stream
// cures both paper errors while the maintained report stays equal to batch
// detection after every delta.
func TestEndToEndIncrementalStream(t *testing.T) {
	ctx := context.Background()
	spec := loadBankSpec(t)
	db := loadBankCSVs(t, spec)
	set := kindSet(t, spec.Schema, spec.CFDs, spec.CINDs)
	chk, err := cindapi.NewChecker(db, set)
	if err != nil {
		t.Fatal(err)
	}
	if got := detectAll(t, db, set).Total(); got != 2 {
		t.Fatalf("initial stream state has %d violations, want the paper's 2", got)
	}
	deltas := readBankDeltas(t)
	if len(deltas) != 4 {
		t.Fatalf("delta log holds %d deltas, fixture has 4", len(deltas))
	}
	for _, d := range deltas {
		if _, err := chk.Apply(ctx, d); err != nil {
			t.Fatalf("applying %s: %v", d, err)
		}
		rep, err := chk.Detect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if batch := detectAll(t, db, set); rep.String() != batch.String() {
			t.Fatalf("after %s the maintained report diverges from batch detection:\nchecker: %s\nbatch:   %s",
				d, rep, batch)
		}
	}
	rep, err := chk.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("stream should end clean, got %s", rep)
	}
}
