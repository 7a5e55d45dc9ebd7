// Tests for the unified Checker API: ConstraintSet construction and
// round-trip, Checker detection/streaming/apply/repair, and context
// cancellation.
package cind_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	cindapi "cind"

	"cind/internal/bank"
	"cind/internal/gen"
	"cind/internal/instance"
)

// bankSet gathers the paper's Figures 2 and 4 constraints into a set,
// CFDs first (the order reports list them in).
func bankSet(t testing.TB) (*cindapi.Schema, *cindapi.ConstraintSet) {
	t.Helper()
	sch := bank.Schema()
	var cs []cindapi.Constraint
	for _, c := range bank.CFDs(sch) {
		cs = append(cs, c)
	}
	for _, c := range bank.CINDs(sch) {
		cs = append(cs, c)
	}
	set, err := cindapi.NewConstraintSet(sch, cs...)
	if err != nil {
		t.Fatal(err)
	}
	return sch, set
}

// genWorkloadSet builds a generated workload set plus a dirtied copy of its
// witness database.
func genWorkloadSet(t testing.TB, seed int64) (*cindapi.ConstraintSet, *cindapi.Database) {
	t.Helper()
	w := gen.New(gen.Config{Relations: 8, Card: 120, Consistent: true, Seed: seed})
	set, err := cindapi.SpecSet(&cindapi.Spec{Schema: w.Schema, CFDs: w.CFDs, CINDs: w.CINDs})
	if err != nil {
		t.Fatal(err)
	}
	return set, dirtyWitness(w)
}

// dirtyWitness clones a workload's witness and plants violations of both
// kinds: per CFD, a clone of a matching tuple with its first Y attribute
// swapped to another tuple's (domain-valid) value — an X-equal, Y-unequal
// pair; per CIND, deletions from the RHS relation, stranding LHS demands.
func dirtyWitness(w *gen.Workload) *cindapi.Database {
	db := w.Witness.Clone()
	for i, c := range w.CFDs {
		if i >= 6 {
			break
		}
		in := db.Instance(c.Rel)
		ycol := in.Relation().Cols(c.Y)[0]
		tuples := in.Tuples()
		for i := 0; i < len(tuples) && i < 8; i++ {
			t := tuples[i]
			inserted := false
			for j := range tuples {
				if !tuples[j][ycol].Eq(t[ycol]) {
					mut := t.Clone()
					mut[ycol] = tuples[j][ycol]
					in.Insert(mut)
					inserted = true
					break
				}
			}
			if inserted {
				break
			}
		}
	}
	for i, c := range w.CINDs {
		if i >= 6 {
			break
		}
		in := db.Instance(c.RHSRel)
		tuples := in.Tuples()
		for j := 0; j < len(tuples) && j < 4; j++ {
			in.Delete(tuples[0])
			tuples = in.Tuples()
		}
	}
	return db
}

// TestConstraintSetOrderAndRoundTrip: ParseConstraints preserves the
// file's interleaved constraint order, MarshalConstraints inverts it, and
// the per-kind accessors split without reordering.
func TestConstraintSetOrderAndRoundTrip(t *testing.T) {
	src := `relation r(a, b)
relation s(c)

cfd phi1: r(a -> b) { (_ || _) }

cind psi1: r[a; nil] <= s[c; nil] { (_ || _) }

cfd phi2: r(b -> a) { (_ || _) }
`
	set, err := cindapi.ParseConstraints(src)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]cindapi.ConstraintKind, 0, set.Len())
	for _, c := range set.Constraints() {
		kinds = append(kinds, c.Kind())
	}
	want := []cindapi.ConstraintKind{cindapi.KindCFD, cindapi.KindCIND, cindapi.KindCFD}
	if len(kinds) != len(want) {
		t.Fatalf("parsed %d constraints, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("constraint %d has kind %v, want %v (source order must be preserved)", i, kinds[i], want[i])
		}
	}

	out := cindapi.MarshalConstraints(set)
	back, err := cindapi.ParseConstraints(out)
	if err != nil {
		t.Fatalf("marshal output does not reparse: %v\n%s", err, out)
	}
	if cindapi.MarshalConstraints(back) != out {
		t.Fatalf("round-trip unstable:\n--- first\n%s\n--- second\n%s", out, cindapi.MarshalConstraints(back))
	}
	bc, sc := back.Constraints(), set.Constraints()
	for i := range sc {
		if bc[i].Kind() != sc[i].Kind() || bc[i].String() != sc[i].String() {
			t.Fatalf("constraint %d changed across round-trip:\n%s\n%s", i, sc[i], bc[i])
		}
	}

	// Editing a parsed spec's per-kind slices invalidates the recorded
	// interleaved order: Marshal and SpecSet must follow the edited
	// fields, not the stale Constraints snapshot.
	spec, err := cindapi.ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	spec.CFDs = spec.CFDs[:1] // drop phi2; counts no longer match by content
	edited, err := cindapi.SpecSet(spec)
	if err != nil {
		t.Fatal(err)
	}
	if edited.Len() != 2 || len(edited.CFDs()) != 1 {
		t.Fatalf("SpecSet after editing CFDs kept stale constraints: %d total, %d CFDs",
			edited.Len(), len(edited.CFDs()))
	}
	if ms := cindapi.MarshalSpec(spec); strings.Contains(ms, "phi2") {
		t.Fatalf("MarshalSpec rendered a constraint removed from spec.CFDs:\n%s", ms)
	}

	// The bank fixture round-trips through the set API too.
	fixtureSrc, err := os.ReadFile(filepath.Join("testdata", "bank", "bank.cind"))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := cindapi.ParseConstraints(string(fixtureSrc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cindapi.ParseConstraints(cindapi.MarshalConstraints(fixture)); err != nil {
		t.Fatalf("bank fixture round-trip: %v", err)
	}
}

// TestConstraintSetValidation rejects nil members and schema mismatches.
func TestConstraintSetValidation(t *testing.T) {
	sch, set := bankSet(t)
	if _, err := cindapi.NewConstraintSet(nil); err == nil {
		t.Fatal("nil schema must be rejected")
	}
	if _, err := cindapi.NewConstraintSet(sch, nil); err == nil {
		t.Fatal("nil constraint must be rejected")
	}
	// A constraint valid over the bank schema is invalid over a different
	// schema: NewConstraintSet and NewChecker must both refuse it.
	other := gen.New(gen.Config{Relations: 2, Card: 4, Consistent: true, Seed: 9})
	if _, err := cindapi.NewConstraintSet(other.Schema, set.Constraints()...); err == nil {
		t.Fatal("bank constraints must not validate over a generated schema")
	}
	otherDB := cindapi.NewDatabase(other.Schema)
	if _, err := cindapi.NewChecker(otherDB, set); err == nil {
		t.Fatal("NewChecker must reject a set invalid over the database schema")
	}
	if _, err := cindapi.NewChecker(nil, set); err == nil {
		t.Fatal("nil database must be rejected")
	}
	if _, err := cindapi.NewChecker(cindapi.NewDatabase(sch), nil); err == nil {
		t.Fatal("nil set must be rejected")
	}
}

// TestCheckerDetectHonorsCancellation: a cancelled context fails Detect.
func TestCheckerDetectHonorsCancellation(t *testing.T) {
	_, set := bankSet(t)
	chk, err := cindapi.NewChecker(bank.Data(bank.Schema()), set)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := chk.Detect(ctx); err != context.Canceled {
		t.Fatalf("Detect(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := chk.Apply(ctx); err != context.Canceled {
		t.Fatalf("Apply(cancelled) err = %v, want context.Canceled", err)
	}
	broke := false
	for _, err := range chk.Violations(ctx) {
		if err != context.Canceled {
			t.Fatalf("Violations(cancelled) must yield the context error, got %v", err)
		}
		broke = true
	}
	if !broke {
		t.Fatal("Violations(cancelled) must yield exactly one error")
	}
}

// TestCheckerViolationsMatchesDetect: at the default pool and at two
// explicit widths the stream is Detect's report, violation for violation;
// WithLimit(n) at the default pool streams exactly Detect's limited report,
// the report's first n.
func TestCheckerViolationsMatchesDetect(t *testing.T) {
	ctx := context.Background()
	stream := func(chk *cindapi.Checker) []string {
		t.Helper()
		var got []string
		for v, err := range chk.Violations(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, v.String())
		}
		return got
	}
	for _, seed := range []int64{1, 21} {
		set, db := genWorkloadSet(t, seed)
		for _, par := range []int{0, 2, 4} {
			chk, err := cindapi.NewChecker(db, set, cindapi.WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := chk.Detect(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := reportLines(rep)
			if got := stream(chk); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("seed %d, parallel %d: stream and report disagree:\n--- report\n%s\n--- stream\n%s",
					seed, par, strings.Join(want, "\n"), strings.Join(got, "\n"))
			}
			if len(want) < 3 {
				t.Fatalf("seed %d: workload too clean (%d violations) to test limits", seed, len(want))
			}
		}
		full, err := cindapi.NewChecker(db, set)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := full.Detect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{1, 2, rep.Total() / 2, rep.Total() - 1} {
			limited, err := cindapi.NewChecker(db, set, cindapi.WithLimit(limit))
			if err != nil {
				t.Fatal(err)
			}
			lrep, err := limited.Detect(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := reportLines(lrep)
			if len(want) != limit {
				t.Fatalf("seed %d: WithLimit(%d) report holds %d violations", seed, limit, len(want))
			}
			if got := stream(limited); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("seed %d: WithLimit(%d) stream is not the limited report:\n--- report\n%s\n--- stream\n%s",
					seed, limit, strings.Join(want, "\n"), strings.Join(got, "\n"))
			}
		}
	}

	// Early break mid-stream is clean: no error, iteration simply ends.
	set, db := genWorkloadSet(t, 1)
	chk, err := cindapi.NewChecker(db, set)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, err := range chk.Violations(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		seen++
		break
	}
	if seen != 1 {
		t.Fatalf("broke after 1, saw %d", seen)
	}
}

// TestCheckerApplyMatchesBatch drives a delta script through Checker.Apply:
// Detect must then serve the maintained report, which must equal batch
// detection over the mutated database, and streaming must walk it in order.
func TestCheckerApplyMatchesBatch(t *testing.T) {
	ctx := context.Background()
	sch, set := bankSet(t)
	chkDB := bank.Data(sch)
	chk, err := cindapi.NewChecker(chkDB, set)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		tu := instance.Consts(fmt.Sprintf("n%04d", i), "Cust", "Addr", "555",
			[]string{"NYC", "EDI"}[i%2])
		ds := []cindapi.Delta{cindapi.InsertDelta("checking", tu)}
		if i%3 == 0 {
			ds = append(ds, cindapi.DeleteDelta("checking", tu))
		}
		for _, d := range ds {
			if _, err := chk.Apply(ctx, d); err != nil {
				t.Fatal(err)
			}
		}
	}

	rep, err := chk.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The maintained report equals batch detection over the mutated db.
	if batch := detectAll(t, chkDB, set); batch.String() != rep.String() {
		t.Fatalf("maintained report diverges from batch:\n--- batch\n%s\n--- checker\n%s", batch, rep)
	}
	// Streaming after Apply serves the maintained report in order.
	i := 0
	all := rep.Violations()
	for v, err := range chk.Violations(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(all) || v.String() != all[i].String() {
			t.Fatalf("post-Apply stream diverges at %d: %s", i, v)
		}
		i++
	}
	if i != len(all) {
		t.Fatalf("post-Apply stream yielded %d of %d", i, len(all))
	}

	// The post-Apply iterator walks an immutable snapshot without holding
	// the checker lock, so the detect-and-fix idiom — Apply from inside
	// the loop — must not deadlock.
	fixed := 0
	for v, err := range chk.Violations(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if cv, ok := v.AsCIND(); ok {
			if _, err := chk.Apply(ctx, cindapi.DeleteDelta(cv.CIND.LHSRel, cv.T)); err != nil {
				t.Fatal(err)
			}
			fixed++
		}
	}
	if fixed == 0 {
		t.Fatal("expected at least one CIND violation to fix in-loop")
	}
}

// TestCheckerConcurrentReadersAndFirstApply drives batch readers against
// the first Apply (the session build mutates the shared database) and then
// against many more: each read pins a version, concurrent pins race to
// publish it, and the writer drops it — the documented concurrency
// guarantee, which go test -race verifies.
func TestCheckerConcurrentReadersAndFirstApply(t *testing.T) {
	ctx := context.Background()
	sch, set := bankSet(t)
	chk, err := cindapi.NewChecker(bank.Data(sch), set)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rep, err := chk.Detect(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if rep.Total() == 0 {
					t.Error("a read saw a clean report; every version has the Figure 1 violations")
					return
				}
				for _, err := range chk.Violations(ctx) {
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		tu := instance.Consts(fmt.Sprintf("c%04d", i%50), "Cust", "Addr", "555", "NYC")
		d := cindapi.InsertDelta("checking", tu)
		if i%100 >= 50 {
			d = cindapi.DeleteDelta("checking", tu)
		}
		if _, err := chk.Apply(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	rep, err := chk.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if batch := detectAll(t, chk.Database(), set); batch.String() != rep.String() {
		t.Fatalf("post-concurrency report diverges from batch detection")
	}
}

// TestCheckerRepairMatchesShim: Checker.Repair equals the RepairDatabase
// entry point on the bank instance.
func TestCheckerRepairMatchesShim(t *testing.T) {
	ctx := context.Background()
	sch, set := bankSet(t)
	want := cindapi.RepairDatabase(bank.Data(sch), set.CFDs(), set.CINDs(), cindapi.RepairOptions{})
	chk, err := cindapi.NewChecker(bank.Data(sch), set)
	if err != nil {
		t.Fatal(err)
	}
	got, err := chk.Repair(ctx, cindapi.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("repair results differ:\n--- shim\n%s\n--- checker\n%s", want, got)
	}
	if !got.Clean {
		t.Fatal("bank repair must converge")
	}
	ctx2, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := chk.Repair(ctx2, cindapi.RepairOptions{}); err != context.Canceled {
		t.Fatalf("Repair(cancelled) err = %v, want context.Canceled", err)
	}
}

// TestSealedConstraintInterface exercises Kind/Validate through the
// interface and the kind strings.
func TestSealedConstraintInterface(t *testing.T) {
	sch, set := bankSet(t)
	for _, c := range set.Constraints() {
		if err := c.Validate(sch); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
	}
	if cindapi.KindCFD.String() != "cfd" || cindapi.KindCIND.String() != "cind" {
		t.Fatalf("kind strings: %s / %s", cindapi.KindCFD, cindapi.KindCIND)
	}
	var nCFD, nCIND int
	for _, c := range set.Constraints() {
		switch c.Kind() {
		case cindapi.KindCFD:
			nCFD++
		case cindapi.KindCIND:
			nCIND++
		default:
			t.Fatalf("unexpected kind %v", c.Kind())
		}
	}
	if nCFD != len(set.CFDs()) || nCIND != len(set.CINDs()) {
		t.Fatalf("kind split %d/%d vs accessors %d/%d", nCFD, nCIND, len(set.CFDs()), len(set.CINDs()))
	}

	// Append is persistent: the original set is unchanged.
	before := set.Len()
	bigger, err := set.Append(set.Constraints()[0])
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != before || bigger.Len() != before+1 {
		t.Fatalf("Append mutated the receiver: %d -> %d / %d", before, set.Len(), bigger.Len())
	}
}
