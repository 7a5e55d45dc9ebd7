package repair

import (
	"strings"
	"testing"

	"cind/internal/bank"
	"cind/internal/cfd"
	cind "cind/internal/core"
	"cind/internal/detect"
	"cind/internal/gen"
	"cind/internal/instance"
	"cind/internal/pattern"
	"cind/internal/schema"
)

// TestRepairBankInstance runs the paper's Example 1.2 repair automatically:
// ϕ3 rewrites t12's 10.5% to 1.5%, after which ψ6's demand is satisfied by
// the rewritten row, and the database is clean.
func TestRepairBankInstance(t *testing.T) {
	sch := bank.Schema()
	dirty := bank.Data(sch)
	res := Repair(dirty, bank.CFDs(sch), bank.CINDs(sch), Options{})
	if !res.Clean {
		t.Fatalf("repair must clean Fig 1:\n%s", res)
	}
	if len(res.Changes) == 0 {
		t.Fatal("repair must record its changes")
	}
	// The dirty input is untouched.
	if detect.Run(dirty, bank.CFDs(sch), bank.CINDs(sch), detect.Options{}).Clean() {
		t.Fatal("input database must not be mutated")
	}
	// The repaired interest relation holds the corrected rate.
	if !res.DB.Instance("interest").Contains(instance.Consts("EDI", "UK", "checking", "1.5%")) {
		t.Fatalf("expected the 1.5%% repair:\n%s", res.DB)
	}
	// And the final state passes full detection.
	if rep := detect.Run(res.DB, bank.CFDs(sch), bank.CINDs(sch), detect.Options{}); !rep.Clean() {
		t.Fatalf("detector disagrees:\n%s", rep)
	}
}

// TestRepairInsertsForCIND: a missing RHS tuple is inserted with copied
// values, pattern constants and placeholders.
func TestRepairInsertsForCIND(t *testing.T) {
	sch := bank.Schema()
	db := instance.NewDatabase(sch)
	db.Instance("checking").InsertConsts("07", "A. New", "EDI, X", "131-1", "EDI")
	res := Repair(db, nil, []*cind.CIND{bank.Psi6(sch)}, Options{})
	if !res.Clean {
		t.Fatalf("repair failed:\n%s", res)
	}
	found := false
	for _, c := range res.Changes {
		if c.Kind == Insert && c.Rel == "interest" {
			found = true
			if !strings.Contains(c.String(), "insert") {
				t.Fatalf("change rendering: %s", c)
			}
		}
	}
	if !found {
		t.Fatal("an interest insertion was expected")
	}
	// The inserted tuple carries the Yp constants of ψ6's EDI row.
	ok := false
	for _, tup := range res.DB.Instance("interest").Tuples() {
		if tup[0].Str() == "EDI" && tup[2].Str() == "checking" && tup[3].Str() == "1.5%" {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("inserted tuple wrong:\n%s", res.DB)
	}
}

// TestRepairPairConflictFirstWriterWins: a wildcard-RHS CFD pair conflict
// copies the first tuple's value into the second.
func TestRepairPairConflictFirstWriterWins(t *testing.T) {
	d := schema.Infinite("d")
	sch := schema.MustNew(schema.MustRelation("R",
		schema.Attribute{Name: "A", Dom: d}, schema.Attribute{Name: "B", Dom: d}))
	phi := cfd.MustNew(sch, "phi", "R", []string{"A"}, []string{"B"},
		[]cfd.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	db := instance.NewDatabase(sch)
	db.Instance("R").InsertConsts("k", "v1")
	db.Instance("R").InsertConsts("k", "v2")
	res := Repair(db, []*cfd.CFD{phi}, nil, Options{})
	if !res.Clean {
		t.Fatalf("repair failed:\n%s", res)
	}
	in := res.DB.Instance("R")
	if in.Len() != 1 || !in.Contains(instance.Consts("k", "v1")) {
		t.Fatalf("want merge onto v1:\n%s", res.DB)
	}
}

// TestRepairUnrepairable: Example 4.2's Σ admits no nonempty repair; the
// loop must terminate with Clean == false instead of diverging.
func TestRepairUnrepairable(t *testing.T) {
	sch, phi, psi := bank.Example42()
	db := instance.NewDatabase(sch)
	db.Instance("R").InsertConsts("x", "y")
	res := Repair(db, phi, psi, Options{MaxPasses: 5})
	if res.Clean {
		t.Fatal("Example 4.2 cannot be repaired")
	}
	if res.Passes != 5 {
		t.Fatalf("budget must be exhausted, passes = %d", res.Passes)
	}
	if !strings.Contains(res.String(), "clean=false") {
		t.Fatalf("summary: %s", res)
	}
}

// TestRepairCleanInputIsNoop: nothing to do on clean data.
func TestRepairCleanInputIsNoop(t *testing.T) {
	sch := bank.Schema()
	res := Repair(bank.CleanData(sch), bank.CFDs(sch), bank.CINDs(sch), Options{})
	if !res.Clean || len(res.Changes) != 0 {
		t.Fatalf("no-op expected:\n%s", res)
	}
	if res.Passes != 0 {
		t.Fatalf("passes = %d, want 0 (first pass found nothing)", res.Passes)
	}
}

// TestRepairedAlwaysCleanOrReported: on random dirty databases over
// generated consistent constraint sets, Repair either cleans the data or
// says it could not — the Clean flag must always agree with the detector.
func TestRepairedAlwaysCleanOrReported(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		w := gen.New(gen.Config{
			Relations: 4, MaxAttrs: 5, F: 0.3, FinDomMax: 5,
			Card: 40, Consistent: true, Seed: seed,
		})
		// Dirty database: witness tuples plus noise rows.
		db := w.Witness.Clone()
		for _, rel := range w.Schema.Relations() {
			vals := make([]string, rel.Arity())
			for j, a := range rel.Attrs() {
				if a.Dom.IsFinite() {
					vals[j] = a.Dom.Values()[0]
				} else {
					vals[j] = "noise"
				}
			}
			db.Instance(rel.Name()).Insert(instance.Consts(vals...))
		}
		res := Repair(db, w.CFDs, w.CINDs, Options{})
		detectorClean := detect.Run(res.DB, w.CFDs, w.CINDs, detect.Options{}).Clean()
		if res.Clean != detectorClean {
			t.Fatalf("seed %d: Clean=%v but detector says %v", seed, res.Clean, detectorClean)
		}
	}
}

func TestKindString(t *testing.T) {
	if Modify.String() != "modify" || Insert.String() != "insert" {
		t.Fatal("kind names")
	}
}
