package detect

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"cind/internal/cfd"
	core "cind/internal/core"
	"cind/internal/gen"
	"cind/internal/instance"
)

// memoWorkload is one database and constraint set the memo tests read.
type memoWorkload struct {
	name  string
	db    *instance.Database
	cfds  []*cfd.CFD
	cinds []*core.CIND
}

// memoWorkloads are the scaled dirty bank and dirty generated workloads:
// CFD pairs and CIND demands, in groups of several members.
func memoWorkloads() []memoWorkload {
	db, cfds, cinds := scaledDirtyBank(400)
	ws := []memoWorkload{{"bank", db, cfds, cinds}}
	for _, seed := range []int64{1, 7, 21} {
		w := gen.New(gen.Config{Relations: 8, Card: 120, Consistent: true, Seed: seed})
		ws = append(ws, memoWorkload{fmt.Sprintf("gen-seed=%d", seed), dirtyWorkload(w), w.CFDs, w.CINDs})
	}
	return ws
}

// eachAll drains p.Each at width into a slice.
func eachAll(t *testing.T, p *Plan, width int) []Violation {
	t.Helper()
	var out []Violation
	if err := p.Each(context.Background(), Options{Parallel: width}, func(v Violation) bool {
		out = append(out, v)
		return true
	}); err != nil {
		t.Fatalf("Each: %v", err)
	}
	return out
}

// runAll is p.Run at width, unlimited.
func runAll(t *testing.T, p *Plan, width int) *Report {
	t.Helper()
	rep, err := p.Run(context.Background(), Options{Parallel: width})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// assertReportIs fails unless got is want, per kind, violation for
// violation.
func assertReportIs(t *testing.T, what string, got, want *Report) {
	t.Helper()
	if !reflect.DeepEqual(got.CFD, want.CFD) || !reflect.DeepEqual(got.CIND, want.CIND) {
		t.Fatalf("%s: report diverges from the reference (%d+%d violations, want %d+%d)",
			what, len(got.CFD), len(got.CIND), len(want.CFD), len(want.CIND))
	}
}

// TestWarmReadsEqualReference reads each workload cold through every entry
// — Run, and Each at width 1 and 4 — and then warm through all of them:
// every read must be the per-constraint reference report, in order, and
// the cold read must have published the plan's hits.
func TestWarmReadsEqualReference(t *testing.T) {
	for _, w := range memoWorkloads() {
		want := referenceRun(w.db, w.cfds, w.cinds)
		if want.Total() == 0 {
			t.Fatalf("%s: workload is clean; the test would prove nothing", w.name)
		}
		colds := map[string]func(*Plan){
			"run":    func(p *Plan) { assertReportIs(t, w.name+" cold run", runAll(t, p, 0), want) },
			"each-1": func(p *Plan) { assertStreamIs(t, eachAll(t, p, 1), want.Violations()) },
			"each-4": func(p *Plan) { assertStreamIs(t, eachAll(t, p, 4), want.Violations()) },
		}
		for cname, cold := range colds {
			p := NewPlan(w.db, w.cfds, w.cinds)
			cold(p)
			if p.memo.Load() == nil {
				t.Fatalf("%s: a complete cold %s published nothing", w.name, cname)
			}
			for _, width := range []int{1, 4} {
				assertReportIs(t, fmt.Sprintf("%s warm run after cold %s, width %d", w.name, cname, width), runAll(t, p, width), want)
				assertStreamIs(t, eachAll(t, p, width), want.Violations())
			}
		}
	}
}

// TestPlanOwnsItsRows writes the database behind a warm plan — a delete,
// which compacts the instance's tuple slice in place, and an insert — and
// reads the plan again: it must still report the version it was built on,
// while a new plan reports the new one.
func TestPlanOwnsItsRows(t *testing.T) {
	db, cfds, cinds := scaledDirtyBank(400)
	want := referenceRun(db, cfds, cinds)
	p := NewPlan(db, cfds, cinds)
	assertReportIs(t, "cold", runAll(t, p, 0), want)
	chk := db.Instance("checking")
	chk.Delete(chk.Tuples()[0])
	chk.Insert(instance.Consts("99999", "New", "Addr", "555", "EDI"))
	if p.Current(db) {
		t.Fatal("the plan claims to describe a database written since it was built")
	}
	assertReportIs(t, "warm run after writes", runAll(t, p, 0), want)
	assertStreamIs(t, eachAll(t, p, 4), want.Violations())
	now := referenceRun(db, cfds, cinds)
	if reflect.DeepEqual(now.Violations(), want.Violations()) {
		t.Fatal("the writes left the report unchanged; the test proves nothing")
	}
	assertReportIs(t, "new plan", runAll(t, NewPlan(db, cfds, cinds), 0), now)
}

// TestIncompleteReadsPublishNothing: a cold Each the consumer breaks at k,
// a cold Each whose context is cancelled at k, and a limited Run each
// leave the plan unevaluated, and the next read is the complete report.
func TestIncompleteReadsPublishNothing(t *testing.T) {
	db, cfds, cinds := scaledDirtyBank(1000)
	want := referenceRun(db, cfds, cinds)
	reads := map[string]func(p *Plan, width, k int){
		"break": func(p *Plan, width, k int) {
			n := 0
			if err := p.Each(context.Background(), Options{Parallel: width}, func(Violation) bool {
				n++
				return n < k
			}); err != nil {
				t.Fatal(err)
			}
		},
		"cancel": func(p *Plan, width, k int) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			n := 0
			if err := p.Each(ctx, Options{Parallel: width}, func(Violation) bool {
				if n++; n == k {
					cancel()
				}
				return true
			}); err != context.Canceled {
				t.Fatalf("cancelled Each = %v, want context.Canceled", err)
			}
		},
		"limit": func(p *Plan, width, k int) {
			rep, err := p.Run(context.Background(), Options{Parallel: width, Limit: k})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Total() != k {
				t.Fatalf("limited run found %d violations, want %d", rep.Total(), k)
			}
		},
	}
	for name, read := range reads {
		for _, width := range []int{1, 4} {
			for _, k := range []int{1, feedChunk + 44, want.Total() - 1} {
				p := NewPlan(db, cfds, cinds)
				read(p, width, k)
				if p.memo.Load() != nil {
					t.Fatalf("%s at %d, width %d: an incomplete read published its hits", name, k, width)
				}
				assertStreamIs(t, eachAll(t, p, width), want.Violations())
			}
		}
	}
}

// TestWarmLimitedRunIsAPrefix sweeps limits over a warm plan: each limited
// run is the full report's prefix, and none disturbs the published hits.
func TestWarmLimitedRunIsAPrefix(t *testing.T) {
	db, cfds, cinds := scaledDirtyBank(300)
	p := NewPlan(db, cfds, cinds)
	full := runAll(t, p, 0)
	all := full.Violations()
	for limit := 1; limit <= len(all)+2; limit++ {
		rep, err := p.Run(context.Background(), Options{Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		assertStreamIs(t, rep.Violations(), all[:min(limit, len(all))])
	}
	assertReportIs(t, "full run after limited runs", runAll(t, p, 0), full)
}

// TestWarmEachPollsContext: a replay stops at a cancellation, yielding the
// report's prefix up to it, and a consumer break ends it without error.
func TestWarmEachPollsContext(t *testing.T) {
	db, cfds, cinds := scaledDirtyBank(300)
	p := NewPlan(db, cfds, cinds)
	all := runAll(t, p, 0).Violations()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []Violation
	err := p.Each(ctx, Options{}, func(v Violation) bool {
		if got = append(got, v); len(got) == 5 {
			cancel()
		}
		return true
	})
	if err != context.Canceled {
		t.Fatalf("cancelled replay = %v, want context.Canceled", err)
	}
	assertStreamIs(t, got, all[:5])
	got = got[:0]
	if err := p.Each(context.Background(), Options{}, func(v Violation) bool {
		got = append(got, v)
		return len(got) < 7
	}); err != nil {
		t.Fatalf("consumer break in a replay is not an error, got %v", err)
	}
	assertStreamIs(t, got, all[:7])
}
