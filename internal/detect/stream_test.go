package detect

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"cind/internal/bank"
	"cind/internal/cfd"
	core "cind/internal/core"
	"cind/internal/gen"
	"cind/internal/instance"
)

// denseDirtyBank builds a violation-heavy instance: n checking tuples in
// groups of size n/groups colliding on (an, ab) with pairwise-conflicting
// customer names, so phi2 yields a quadratic number of cross-partition
// pairs per group — the workload where full-report materialisation is
// expensive and early exit pays.
func denseDirtyBank(n, groups int) (*instance.Database, []*cfd.CFD, []*core.CIND) {
	sch := bank.Schema()
	db := bank.Data(sch)
	chk := db.Instance("checking")
	for i := 0; i < n; i++ {
		an := fmt.Sprintf("%05d", i%groups)
		chk.Insert(instance.Consts(an, fmt.Sprintf("Cust-%d", i), "Addr", "555",
			[]string{"NYC", "EDI"}[i%2]))
	}
	return db, bank.CFDs(sch), bank.CINDs(sch)
}

// collectEach drains Each into a slice.
func collectEach(t *testing.T, ctx context.Context, db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND, opts Options) []Violation {
	t.Helper()
	var out []Violation
	if err := Each(ctx, db, cfds, cinds, opts, func(v Violation) bool {
		out = append(out, v)
		return true
	}); err != nil {
		t.Fatalf("Each: %v", err)
	}
	return out
}

func sortedStrings(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	sort.Strings(out)
	return out
}

// TestEachMatchesRunAsMultiset checks that the streaming path emits exactly
// the violations of the batch path — arrival order interleaves across
// groups, so equality is as multisets.
func TestEachMatchesRunAsMultiset(t *testing.T) {
	check := func(db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND) {
		t.Helper()
		batch := Run(db, cfds, cinds, Options{})
		var want []Violation
		for _, v := range batch.CFD {
			want = append(want, CFDViolation(v))
		}
		for _, v := range batch.CIND {
			want = append(want, CINDViolation(v))
		}
		got := collectEach(t, context.Background(), db, cfds, cinds, Options{})
		ws, gs := sortedStrings(want), sortedStrings(got)
		if len(ws) != len(gs) {
			t.Fatalf("stream found %d violations, batch %d", len(gs), len(ws))
		}
		for i := range ws {
			if ws[i] != gs[i] {
				t.Fatalf("violation multisets differ at %d:\nstream: %s\nbatch:  %s", i, gs[i], ws[i])
			}
		}
	}

	sch := bank.Schema()
	check(bank.Data(sch), bank.CFDs(sch), bank.CINDs(sch))
	db, cfds, cinds := scaledDirtyBank(400)
	check(db, cfds, cinds)
	for _, seed := range []int64{1, 21} {
		w := gen.New(gen.Config{Relations: 8, Card: 120, Consistent: true, Seed: seed})
		check(dirtyWorkload(w), w.CFDs, w.CINDs)
	}
}

// TestEachSequentialSingleConstraintOrder pins the documented within-group
// order: with one constraint (hence one group) and one worker, the stream
// order is exactly the batch order.
func TestEachSequentialSingleConstraintOrder(t *testing.T) {
	db, cfds, _ := scaledDirtyBank(200)
	for _, c := range cfds {
		want := Run(db, []*cfd.CFD{c}, nil, Options{}).CFD
		got := collectEach(t, context.Background(), db, []*cfd.CFD{c}, nil, Options{Parallel: 1})
		if len(got) != len(want) {
			t.Fatalf("%s: stream %d vs batch %d violations", c.ID, len(got), len(want))
		}
		for i := range want {
			cv, ok := got[i].AsCFD()
			if !ok || cv.String() != want[i].String() {
				t.Fatalf("%s: order diverges at %d: %s vs %s", c.ID, i, got[i], want[i])
			}
		}
	}
}

// unitsOutOfOrder reports whether running the plan's units one after
// another, each member's violations in turn, would stream rep in another
// order: some violation of a later unit precedes one of an earlier unit.
func unitsOutOfOrder(p *Plan, cfds []*cfd.CFD, cinds []*core.CIND, rep *Report) bool {
	unitOf := map[any]int{}
	for s, ref := range p.slots {
		if s < len(cfds) {
			unitOf[cfds[s]] = ref.u
		} else {
			unitOf[cinds[s-len(cfds)]] = ref.u
		}
	}
	last := -1
	for _, v := range rep.Violations() {
		u := unitOf[v.Constraint()]
		if u < last {
			return true
		}
		last = u
	}
	return false
}

// TestEachSequentialIsReportOrder pins the one-worker stream to the report,
// violation for violation, on workloads whose detection groups interleave
// in report order: the stream must hold a group's later members back until
// their slots come up, where a group-by-group stream would not.
func TestEachSequentialIsReportOrder(t *testing.T) {
	check := func(t *testing.T, db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND) {
		t.Helper()
		rep, err := RunContext(context.Background(), db, cfds, cinds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !unitsOutOfOrder(NewPlan(db, cfds, cinds), cfds, cinds, rep) {
			t.Fatal("group-by-group order already matches the report; the test would prove nothing")
		}
		want := rep.Violations()
		got := collectEach(t, context.Background(), db, cfds, cinds, Options{Parallel: 1})
		if len(got) != len(want) {
			t.Fatalf("stream found %d violations, report %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Constraint() != want[i].Constraint() || got[i].String() != want[i].String() {
				t.Fatalf("stream diverges from the report at %d of %d:\nstream: %s\nreport: %s", i, len(want), got[i], want[i])
			}
		}
	}

	t.Run("bank", func(t *testing.T) {
		// ψ1_EDI shares ψ1_NYC's group (RHS saving, same Y) and sits after
		// ψ2_NYC in Σ; violate both so the group's later member must wait.
		sch := bank.Schema()
		db := bank.Data(sch)
		db.Insert("account_NYC", instance.Consts("a-901", "Nobody", "Nowhere", "555", "checking"))
		db.Insert("account_EDI", instance.Consts("a-902", "Someone", "Elsewhere", "556", "saving"))
		cfds, cinds := bank.CFDs(sch), bank.CINDs(sch)
		violated := map[string]bool{}
		for _, v := range Run(db, cfds, cinds, Options{}).CIND {
			violated[v.CIND.ID] = true
		}
		if !violated["psi1_EDI"] || !violated["psi2_NYC"] {
			t.Fatalf("want psi1_EDI and psi2_NYC violated, got %v", violated)
		}
		check(t, db, cfds, cinds)
	})
	t.Run("gen", func(t *testing.T) {
		w := gen.New(gen.Config{Relations: 8, Card: 120, Consistent: true, Seed: 21})
		check(t, dirtyWorkload(w), w.CFDs, w.CINDs)
	})
}

// TestEachEarlyBreakStopsWorkers is the satellite cancellation test for the
// consumer-break direction: on a violation-heavy workload whose full
// enumeration is large, breaking at the first violation must return
// promptly — without enumerating the rest — and must not leak engine
// goroutines.
func TestEachEarlyBreakStopsWorkers(t *testing.T) {
	db, cfds, cinds := denseDirtyBank(4000, 100)
	before := runtime.NumGoroutine()

	start := time.Now()
	seen := 0
	err := Each(context.Background(), db, cfds, cinds, Options{}, func(v Violation) bool {
		seen++
		return false // break at the first violation
	})
	if err != nil {
		t.Fatalf("consumer break is not an error, got %v", err)
	}
	if seen != 1 {
		t.Fatalf("yield called %d times after returning false", seen)
	}
	// Each returns only after every worker has exited; the goroutine count
	// must settle back to the baseline (allow the runtime a moment for
	// exits to be observed).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("engine leaked goroutines: %d before, %d after", before, g)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("early break took %v; workers did not stop promptly", elapsed)
	}
}

// TestEachCtxCancelMidStream cancels the context from inside the consumer:
// the stream must end with ctx's error, and Each must report it.
func TestEachCtxCancelMidStream(t *testing.T) {
	db, cfds, cinds := scaledDirtyBank(1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := Each(ctx, db, cfds, cinds, Options{}, func(v Violation) bool {
		cancel() // keep consuming; cancellation alone must end the stream
		return true
	})
	if err != context.Canceled {
		t.Fatalf("Each after mid-stream cancel = %v, want context.Canceled", err)
	}
}

// TestRunContextPreCancelled checks the fast path: an already-cancelled
// context never starts evaluation.
func TestRunContextPreCancelled(t *testing.T) {
	sch := bank.Schema()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, bank.Data(sch), bank.CFDs(sch), bank.CINDs(sch), Options{})
	if err != context.Canceled || res != nil {
		t.Fatalf("RunContext(cancelled) = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if err := Each(ctx, bank.Data(sch), bank.CFDs(sch), bank.CINDs(sch), Options{}, func(Violation) bool {
		t.Fatal("yield must not run under a cancelled context")
		return false
	}); err != context.Canceled {
		t.Fatalf("Each(cancelled) = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelMidRun cancels a detection run partway through a
// violation-heavy enumeration and checks the engine honors it: the run
// returns the context error well before the full-run duration. The timeout
// is derived from a measured uncancelled run to stay robust across
// machines; if the box is so fast the run completes inside the timeout,
// the attempt retries with a tighter one.
func TestRunContextCancelMidRun(t *testing.T) {
	db, cfds, cinds := denseDirtyBank(6000, 60)
	start := time.Now()
	full := Run(db, cfds, cinds, Options{Parallel: 1})
	fullDur := time.Since(start)
	if full.Total() < 100000 {
		t.Fatalf("workload found only %d violations; not violation-heavy enough to time", full.Total())
	}

	timeout := fullDur / 10
	for attempt := 0; attempt < 4; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		res, err := RunContext(ctx, db, cfds, cinds, Options{Parallel: 1})
		cancel()
		if err != nil {
			if res != nil {
				t.Fatalf("cancelled run returned a partial result")
			}
			return // cancellation honored mid-run
		}
		timeout /= 4 // machine finished first; tighten and retry
	}
	t.Fatal("run never observed cancellation mid-run")
}

// TestNewSessionContextPreCancelled: the seeding pass polls the context
// before replaying the first tuple.
func TestNewSessionContextPreCancelled(t *testing.T) {
	sch := bank.Schema()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSessionContext(ctx, bank.Data(sch), bank.CFDs(sch), bank.CINDs(sch))
	if err != context.Canceled || s != nil {
		t.Fatalf("NewSessionContext(cancelled) = (%v, %v), want (nil, context.Canceled)", s, err)
	}
}

// TestViolationSumType pins the unified accessors on both kinds and the
// zero value.
func TestViolationSumType(t *testing.T) {
	sch := bank.Schema()
	db := bank.Data(sch)
	rep := Run(db, bank.CFDs(sch), bank.CINDs(sch), Options{})
	if len(rep.CFD) == 0 || len(rep.CIND) == 0 {
		t.Fatalf("bank data must violate both kinds, got %d/%d", len(rep.CFD), len(rep.CIND))
	}

	fv := CFDViolation(rep.CFD[0])
	if fv.Kind().String() != "cfd" {
		t.Fatalf("CFD violation kind = %q", fv.Kind())
	}
	if fv.Constraint() != rep.CFD[0].CFD {
		t.Fatal("Constraint() must return the violated CFD")
	}
	if w := fv.Witness(); len(w) != 2 || !w[0].Eq(rep.CFD[0].T1) || !w[1].Eq(rep.CFD[0].T2) {
		t.Fatalf("CFD witness = %v", w)
	}
	if _, ok := fv.AsCFD(); !ok {
		t.Fatal("AsCFD must succeed on a CFD violation")
	}
	if _, ok := fv.AsCIND(); ok {
		t.Fatal("AsCIND must fail on a CFD violation")
	}

	iv := CINDViolation(rep.CIND[0])
	if iv.Kind().String() != "cind" {
		t.Fatalf("CIND violation kind = %q", iv.Kind())
	}
	if iv.Constraint() != rep.CIND[0].CIND {
		t.Fatal("Constraint() must return the violated CIND")
	}
	if w := iv.Witness(); len(w) != 1 || !w[0].Eq(rep.CIND[0].T) {
		t.Fatalf("CIND witness = %v", w)
	}

	var zero Violation
	if zero.Constraint() != nil || zero.Witness() != nil || zero.Kind() != 0 {
		t.Fatalf("zero Violation must be inert, got %v / %v / %v",
			zero.Constraint(), zero.Witness(), zero.Kind())
	}
	if zero.String() != "[no violation]" {
		t.Fatalf("zero String = %q", zero.String())
	}
}
