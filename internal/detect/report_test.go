package detect

import (
	"strconv"
	"strings"
	"testing"

	"cind/internal/bank"
	"cind/internal/cfd"
	core "cind/internal/core"
	"cind/internal/instance"
)

// diffReports is the snapshot-based oracle for Session diffs: Added holds
// the violations of after missing from before (in after's order), Removed
// the converse (in before's order). Violation identity is the constraint
// ID, the tableau row index and the witness tuple values.
func diffReports(before, after *Report) *Diff {
	d := &Diff{}
	d.Added.CFD, d.Removed.CFD = diffKeyed(before.CFD, after.CFD, func(v cfd.Violation) string {
		return v.CFD.ID + "\x00" + strconv.Itoa(v.RowIdx) + "\x00" + tupleKey(v.T1) + tupleKey(v.T2)
	})
	d.Added.CIND, d.Removed.CIND = diffKeyed(before.CIND, after.CIND, func(v core.Violation) string {
		return v.CIND.ID + "\x00" + strconv.Itoa(v.RowIdx) + "\x00" + tupleKey(v.T)
	})
	return d
}

// diffKeyed is the multiset difference of two violation lists under key.
func diffKeyed[V any](before, after []V, key func(V) string) (added, removed []V) {
	unmatched := make(map[string]int, len(before))
	for _, v := range before {
		unmatched[key(v)]++
	}
	for _, v := range after {
		if k := key(v); unmatched[k] > 0 {
			unmatched[k]--
		} else {
			added = append(added, v)
		}
	}
	for _, v := range before {
		if k := key(v); unmatched[k] > 0 {
			unmatched[k]--
			removed = append(removed, v)
		}
	}
	return added, removed
}

// TestDetectPaperErrors runs the full Example 1.2 detection: on Fig 1, ϕ3
// flags t12 and ψ6 flags t10; after repair both are clean.
func TestDetectPaperErrors(t *testing.T) {
	sch := bank.Schema()
	cfds, cinds := bank.CFDs(sch), bank.CINDs(sch)
	rep := Run(bank.Data(sch), cfds, cinds, Options{})
	if len(rep.CFD) != 1 || len(rep.CIND) != 1 {
		t.Fatalf("got %d CFD and %d CIND violations, want 1 and 1 (t12 vs ϕ3, t10 vs ψ6)", len(rep.CFD), len(rep.CIND))
	}
	if out := rep.String(); !strings.HasPrefix(out, "2 violation(s):") ||
		!strings.Contains(out, "[cfd]") || !strings.Contains(out, "[cind]") {
		t.Fatalf("report rendering: %s", out)
	}
	if rep := Run(bank.CleanData(sch), cfds, cinds, Options{}); rep.String() != "clean: no violations" {
		t.Fatalf("repaired data must be clean: %s", rep)
	}
}

// TestSessionTracksDetect drives the session through the bank example's
// cleaning story and checks it stays equal to the batch engine.
func TestSessionTracksDetect(t *testing.T) {
	sch := bank.Schema()
	db := bank.Data(sch)
	cfds, cinds := bank.CFDs(sch), bank.CINDs(sch)
	sess := NewSession(db, cfds, cinds)
	if got := sess.Report().Total(); got != 2 {
		t.Fatalf("seeded report has %d violations, want 2 (t12/phi3 and t10/psi6)", got)
	}

	// Repair the dirty 10.5% rate: delete t12, insert the clean row.
	diff, err := sess.Apply(
		Del("interest", instance.Consts("EDI", "UK", "checking", "10.5%")),
		Ins("interest", instance.Consts("EDI", "UK", "checking", "1.5%")),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Removed.CFD) != 1 || len(diff.Removed.CIND) != 1 {
		t.Fatalf("fixing t12 should cure one CFD and one CIND violation, got diff %v", diff)
	}
	if got, want := sess.Report(), Run(db, cfds, cinds, Options{}); got.String() != want.String() {
		t.Fatalf("session diverges from Run:\nsession: %s\nbatch:   %s", got, want)
	}
	if !sess.Report().Clean() {
		t.Fatalf("repaired bank data still dirty: %s", sess.Report())
	}

	// The reverse direction: deleting an RHS tuple creates a CIND violation.
	diff, err = sess.Apply(Del("interest", instance.Consts("NYC", "US", "checking", "1%")))
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Added.CIND) == 0 {
		t.Fatalf("deleting an interest row must create CIND violations, got diff %v", diff)
	}
	if got, want := sess.Report(), Run(db, cfds, cinds, Options{}); got.String() != want.String() {
		t.Fatalf("session diverges from Run after RHS delete:\nsession: %s\nbatch:   %s", got, want)
	}
}

// TestDiffReports checks the set-difference semantics of the snapshot
// oracle.
func TestDiffReports(t *testing.T) {
	sch := bank.Schema()
	cfds, cinds := bank.CFDs(sch), bank.CINDs(sch)
	before := Run(bank.Data(sch), cfds, cinds, Options{})
	after := Run(bank.CleanData(sch), cfds, cinds, Options{})

	d := diffReports(before, after)
	if d.Added.Total() != 0 {
		t.Fatalf("cleaning the data cannot add violations: %s", &d.Added)
	}
	if d.Removed.Total() != before.Total() {
		t.Fatalf("cleaning removes all %d violations, diff says %d", before.Total(), d.Removed.Total())
	}
	if !diffReports(before, before).Empty() {
		t.Fatal("diff of a report with itself must be empty")
	}
	inv := diffReports(after, before)
	if inv.Added.Total() != before.Total() || inv.Removed.Total() != 0 {
		t.Fatalf("inverse diff wrong: %v", inv)
	}
	if s := d.String(); !strings.Contains(s, "-2") {
		t.Fatalf("diff summary %q should mention 2 removals", s)
	}
}

// TestSessionMatchesDiffReportsOracle: the diff the session computes
// incrementally equals the one the oracle derives from the before/after
// snapshots.
func TestSessionMatchesDiffReportsOracle(t *testing.T) {
	sch := bank.Schema()
	sess := NewSession(bank.Data(sch), bank.CFDs(sch), bank.CINDs(sch))
	deltas := []Delta{
		Ins("checking", instance.Consts("a9", "Zed", "addr", "555", "EDI")),
		Del("interest", instance.Consts("EDI", "UK", "checking", "10.5%")),
		Ins("saving", instance.Consts("a9", "Zed", "addr", "555", "SFO")),
	}
	for _, d := range deltas {
		before := sess.Report()
		got, err := sess.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		want := diffReports(before, sess.Report())
		if got.Added.String() != want.Added.String() || got.Removed.String() != want.Removed.String() {
			t.Fatalf("delta %s: session diff %v disagrees with the snapshot oracle %v", d, got, want)
		}
	}
}
