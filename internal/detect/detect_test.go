package detect

import (
	"fmt"
	"reflect"
	"testing"

	"cind/internal/bank"
	"cind/internal/cfd"
	core "cind/internal/core"
	"cind/internal/gen"
	"cind/internal/instance"
	"cind/internal/pattern"
	"cind/internal/schema"
)

// referenceRun is the seed detection loop: each constraint evaluated
// independently through the per-constraint reference implementations.
func referenceRun(db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND) *Report {
	res := &Report{}
	for _, c := range cfds {
		res.CFD = append(res.CFD, c.Violations(db)...)
	}
	for _, c := range cinds {
		res.CIND = append(res.CIND, c.Violations(db)...)
	}
	return res
}

// assertEquivalent asserts Run matches the reference implementation
// violation for violation, in order, sequentially and in parallel.
func assertEquivalent(t *testing.T, db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND) {
	t.Helper()
	want := referenceRun(db, cfds, cinds)
	for _, par := range []int{1, 0, 7} {
		got := Run(db, cfds, cinds, Options{Parallel: par})
		if !reflect.DeepEqual(got.CFD, want.CFD) {
			t.Fatalf("Parallel=%d: CFD violations diverge\ngot  %d: %v\nwant %d: %v",
				par, len(got.CFD), got.CFD, len(want.CFD), want.CFD)
		}
		if !reflect.DeepEqual(got.CIND, want.CIND) {
			t.Fatalf("Parallel=%d: CIND violations diverge\ngot  %d: %v\nwant %d: %v",
				par, len(got.CIND), got.CIND, len(want.CIND), want.CIND)
		}
	}
}

func TestRunMatchesReferenceOnBankData(t *testing.T) {
	sch := bank.Schema()
	db := bank.Data(sch)
	assertEquivalent(t, db, bank.CFDs(sch), bank.CINDs(sch))

	rep := Run(db, bank.CFDs(sch), bank.CINDs(sch), Options{})
	if rep.Total() != 2 {
		t.Fatalf("bank data has %d violations, want 2 (t12 vs phi3, t10 vs psi6)", rep.Total())
	}
}

func TestRunMatchesReferenceOnCleanBankData(t *testing.T) {
	sch := bank.Schema()
	db := bank.CleanData(sch)
	assertEquivalent(t, db, bank.CFDs(sch), bank.CINDs(sch))
	if rep := Run(db, bank.CFDs(sch), bank.CINDs(sch), Options{}); !rep.Clean() {
		t.Fatalf("clean bank data reported dirty: %d violations", rep.Total())
	}
}

// scaledDirtyBank is the benchmark workload: the Figure 1 instance plus n
// extra checking tuples, a share of which collide on (an, ab) with
// conflicting customer names — CFD pair violations — while every EDI tuple
// trips psi6 (the 10.5% error means no matching interest tuple exists).
func scaledDirtyBank(n int) (*instance.Database, []*cfd.CFD, []*core.CIND) {
	sch := bank.Schema()
	db := bank.Data(sch)
	chk := db.Instance("checking")
	for i := 0; i < n; i++ {
		an := fmt.Sprintf("%05d", i%(n/2+1)) // duplicate account numbers
		chk.Insert(instance.Consts(an, fmt.Sprintf("Cust-%d", i), "Addr", "555",
			[]string{"NYC", "EDI"}[i%2]))
	}
	return db, bank.CFDs(sch), bank.CINDs(sch)
}

func TestRunMatchesReferenceOnScaledDirtyData(t *testing.T) {
	db, cfds, cinds := scaledDirtyBank(400)
	assertEquivalent(t, db, cfds, cinds)
	if rep := Run(db, cfds, cinds, Options{}); rep.Total() < 200 {
		t.Fatalf("scaled dirty data found only %d violations; workload lost its point", rep.Total())
	}
}

// dirtyWorkload clones a generated witness and strands LHS demands of the
// first six CINDs by deleting tuples from their RHS relations. (Swapping
// attribute values between witness tuples plants no CFD violation on these
// workloads: the clones never match a tableau row's LHS pattern.)
func dirtyWorkload(w *gen.Workload) *instance.Database {
	db := w.Witness.Clone()
	for _, c := range w.CINDs[:min(6, len(w.CINDs))] {
		in := db.Instance(c.RHSRel)
		for j := 0; j < 4 && in.Len() > 0; j++ {
			in.Delete(in.Tuples()[0])
		}
	}
	return db
}

func TestRunMatchesReferenceOnGeneratedWorkloads(t *testing.T) {
	for _, seed := range []int64{1, 7, 21} {
		w := gen.New(gen.Config{Relations: 8, Card: 120, Consistent: true, Seed: seed})
		if w.Witness == nil {
			t.Fatalf("seed %d: consistent workload carries no witness", seed)
		}
		assertEquivalent(t, w.Witness, w.CFDs, w.CINDs)
		if rep := Run(w.Witness, w.CFDs, w.CINDs, Options{}); !rep.Clean() {
			t.Fatalf("seed %d: witness reported dirty", seed)
		}
		assertEquivalent(t, dirtyWorkload(w), w.CFDs, w.CINDs)
	}
}

// TestRunLimitIsAPrefixOfTheFullRun sweeps every small limit over
// workloads whose detection groups hold several members (the permuted-X
// CFD pair shares one index; the generated workloads group CFDs by X set
// and CINDs by RHS projection), so a collector that aborts a group once one
// member's slot is full must still return exactly the unlimited run's prefix.
func TestRunLimitIsAPrefixOfTheFullRun(t *testing.T) {
	type workload struct {
		name  string
		db    *instance.Database
		cfds  []*cfd.CFD
		cinds []*core.CIND
	}
	db, cfds, cinds := scaledDirtyBank(300)
	// The scaled rows never share (an, ab), so give the permuted-X pair
	// collisions: a second customer name and address for 40 of them.
	pdb, _, _ := scaledDirtyBank(300)
	for _, tu := range pdb.Instance("checking").Tuples()[:40] {
		alt := tu.Clone()
		alt[1], alt[2] = instance.Const("Alt"), instance.Const("Alt")
		pdb.Instance("checking").Insert(alt)
	}
	cases := []workload{
		{"bank", db, cfds, cinds},
		{"permuted-x", pdb, permutedXCFDs(pdb.Schema()), nil},
	}
	for _, seed := range []int64{1, 7} {
		w := gen.New(gen.Config{Relations: 8, Card: 120, Consistent: true, Seed: seed})
		cases = append(cases, workload{fmt.Sprintf("gen-seed=%d", seed), dirtyWorkload(w), w.CFDs, w.CINDs})
	}
	for _, c := range cases {
		full := Run(c.db, c.cfds, c.cinds, Options{})
		if full.Total() < 5 {
			t.Fatalf("%s: workload too clean (%d violations) to exercise Limit", c.name, full.Total())
		}
		limits := []int{full.Total(), full.Total() + 50}
		for limit := 1; limit <= min(full.Total(), 64); limit++ {
			limits = append(limits, limit)
		}
		for _, limit := range limits {
			for _, par := range []int{1, 0} {
				got := Run(c.db, c.cfds, c.cinds, Options{Limit: limit, Parallel: par})
				if wantN := min(limit, full.Total()); got.Total() != wantN {
					t.Fatalf("%s limit=%d Parallel=%d: got %d violations, want %d", c.name, limit, par, got.Total(), wantN)
				}
				for i, v := range got.CFD {
					if !reflect.DeepEqual(v, full.CFD[i]) {
						t.Fatalf("%s limit=%d Parallel=%d: CFD[%d] is not a prefix of the full run", c.name, limit, par, i)
					}
				}
				for i, v := range got.CIND {
					if !reflect.DeepEqual(v, full.CIND[i]) {
						t.Fatalf("%s limit=%d Parallel=%d: CIND[%d] is not a prefix of the full run", c.name, limit, par, i)
					}
				}
			}
		}
	}
}

func TestRunEmptyInputs(t *testing.T) {
	sch := bank.Schema()
	db := instance.NewDatabase(sch) // all relations empty
	assertEquivalent(t, db, bank.CFDs(sch), bank.CINDs(sch))
	if rep := Run(db, nil, nil, Options{}); !rep.Clean() {
		t.Fatal("no constraints means no violations")
	}
}

func TestSingleConstraintWrappers(t *testing.T) {
	db, cfds, cinds := scaledDirtyBank(100)
	for _, c := range cfds {
		if got, want := CFDViolations(db, c), c.Violations(db); !reflect.DeepEqual(got, want) {
			t.Fatalf("CFDViolations(%s) diverges from the reference", c.ID)
		}
	}
	for _, c := range cinds {
		if got, want := CINDViolations(db, c), c.Violations(db); !reflect.DeepEqual(got, want) {
			t.Fatalf("CINDViolations(%s) diverges from the reference", c.ID)
		}
	}
}

// TestRunMatchesReferenceOnControlByteConstants pins the NUL-ambiguity
// regression: with terminator-based projection keys the reference used to
// merge the distinct X projections ("a\x00\x02b", "c") and
// ("a", "b\x00\x02c") into one group and report a spurious pair violation.
// Both implementations must agree that the instance below is clean.
func TestRunMatchesReferenceOnControlByteConstants(t *testing.T) {
	d := schema.Infinite("d")
	rel := schema.MustRelation("R",
		schema.Attribute{Name: "A", Dom: d},
		schema.Attribute{Name: "B", Dom: d},
		schema.Attribute{Name: "C", Dom: d})
	sch := schema.MustNew(rel)
	db := instance.NewDatabase(sch)
	db.Instance("R").InsertConsts("a\x00\x02b", "c", "y1")
	db.Instance("R").InsertConsts("a", "b\x00\x02c", "y2")
	phi := cfd.MustNew(sch, "phi", "R", []string{"A", "B"}, []string{"C"},
		[]cfd.Row{{LHS: pattern.Wilds(2), RHS: pattern.Wilds(1)}})
	assertEquivalent(t, db, []*cfd.CFD{phi}, nil)
	if got := Run(db, []*cfd.CFD{phi}, nil, Options{}); !got.Clean() {
		t.Fatalf("distinct X projections merged: %v", got.CFD)
	}
}

// TestRunMatchesReferenceOnPermutedXLists covers set-based CFD grouping:
// CFDs whose X lists are permutations of each other share one index, and
// the permuted pattern alignment must not change any result.
func TestRunMatchesReferenceOnPermutedXLists(t *testing.T) {
	db, _, _ := scaledDirtyBank(200)
	assertEquivalent(t, db, permutedXCFDs(db.Schema()), nil)
}

// permutedXCFDs is a CFD pair over checking whose X lists are permutations
// of each other, so the engine evaluates both off one shared index.
func permutedXCFDs(sch *schema.Schema) []*cfd.CFD {
	return []*cfd.CFD{
		cfd.MustNew(sch, "fwd", "checking", []string{"an", "ab"}, []string{"cn"},
			[]cfd.Row{{LHS: pattern.Wilds(2), RHS: pattern.Wilds(1)}}),
		cfd.MustNew(sch, "rev", "checking", []string{"ab", "an"}, []string{"ca"},
			[]cfd.Row{{LHS: pattern.Tup(pattern.Sym("EDI"), pattern.Wild), RHS: pattern.Wilds(1)}}),
	}
}

// TestParallelRunIsRaceFreeAndDeterministic hammers the parallel path; run
// under -race (see ci.sh) it doubles as the engine's race test.
func TestParallelRunIsRaceFreeAndDeterministic(t *testing.T) {
	db, cfds, cinds := scaledDirtyBank(250)
	want := Run(db, cfds, cinds, Options{Parallel: 1})
	for i := 0; i < 10; i++ {
		got := Run(db, cfds, cinds, Options{Parallel: 8})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: parallel run diverged from sequential", i)
		}
	}
}
