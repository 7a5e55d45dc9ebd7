package detect

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cind/internal/bank"
	"cind/internal/cfd"
	core "cind/internal/core"
	"cind/internal/gen"
	"cind/internal/instance"
	"cind/internal/pattern"
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

// collectEach drains a fresh plan's Each into a slice.
func collectEach(t *testing.T, ctx context.Context, db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND, opts Options) []Violation {
	t.Helper()
	var out []Violation
	if err := NewPlan(db, cfds, cinds).Each(ctx, opts, func(v Violation) bool {
		out = append(out, v)
		return true
	}); err != nil {
		t.Fatalf("Each: %v", err)
	}
	return out
}

// eachWidths are the worker counts the order tests stream at: no helpers,
// then helper pools narrower than, about as wide as, and wider than a
// plan's units.
var eachWidths = []int{1, 2, 3, 8}

// reportStream is the batch report of db as the stream Each must equal.
func reportStream(t *testing.T, db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND) []Violation {
	t.Helper()
	rep, err := RunContext(context.Background(), db, cfds, cinds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Violations()
}

// sameViolation reports whether a and b are the same violation: the same
// constraint, tableau row and witness tuples.
func sameViolation(a, b Violation) bool {
	if a.Constraint() != b.Constraint() || a.Row() != b.Row() {
		return false
	}
	wa, wb := a.Witness(), b.Witness()
	for i := range wa {
		if !wa[i].Eq(wb[i]) {
			return false
		}
	}
	return len(wa) == len(wb)
}

// assertStreamIs fails unless got is want, violation for violation.
func assertStreamIs(t *testing.T, got, want []Violation) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if !sameViolation(got[i], want[i]) {
			t.Fatalf("stream diverges from the report at %d of %d:\nstream: %s\nreport: %s", i, len(want), got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("stream yielded %d violations, report holds %d", len(got), len(want))
	}
}

// heldCINDBank is the Figure 1 bank with two more account tuples that
// violate psi1_EDI and psi2_NYC: psi1_EDI shares psi1_NYC's group (RHS
// saving, same Y) but sits after psi2_NYC in Σ, so the group's later
// member is held until its slot comes up.
func heldCINDBank(t *testing.T) (*instance.Database, []*cfd.CFD, []*core.CIND) {
	t.Helper()
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
	return db, cfds, cinds
}

// phi2Held is a second CFD over phi2's X attribute set (listed in another
// order): it joins phi2's detection group as a later member, and on
// denseDirtyBank, where every customer name differs, it violates on every
// pair of an X bucket.
func phi2Held() *cfd.CFD {
	return cfd.MustNew(bank.Schema(), "phi2_held", "checking",
		[]string{"ab", "an"}, []string{"cn"},
		[]cfd.Row{{LHS: pattern.Wilds(2), RHS: pattern.Wilds(1)}})
}

// TestEachMatchesRunInOrder pins the stream to the batch report, violation
// for violation, at every width. The dense workloads put the heavy unit
// (phi2's quadratic pairs) before and after light ones, so helpers finish
// out of order, and hold a heavy later member (phi2_held, whose slot comes
// after phi3) in chunks; the held-cind bank and the generated workloads
// mix CFD and CIND groups with several members.
func TestEachMatchesRunInOrder(t *testing.T) {
	sch := bank.Schema()
	dense, _, denseCINDs := denseDirtyBank(2000, 50)
	phi1, phi2, phi3 := bank.Phi1(sch), bank.Phi2(sch), bank.Phi3(sch)
	type workload struct {
		name  string
		db    *instance.Database
		cfds  []*cfd.CFD
		cinds []*core.CIND
	}
	workloads := []workload{
		{"bank", bank.Data(sch), bank.CFDs(sch), bank.CINDs(sch)},
		{"dense/heavy-early", dense, []*cfd.CFD{phi2, phi1, phi3}, denseCINDs},
		{"dense/heavy-late", dense, []*cfd.CFD{phi1, phi3, phi2}, denseCINDs},
		{"dense/held-member", dense, []*cfd.CFD{phi1, phi2, phi3, phi2Held()}, denseCINDs},
	}
	db, cfds, cinds := heldCINDBank(t)
	workloads = append(workloads, workload{"bank/held-cind", db, cfds, cinds})
	db, cfds, cinds = scaledDirtyBank(400)
	workloads = append(workloads, workload{"scaled", db, cfds, cinds})
	for _, seed := range []int64{1, 21} {
		w := gen.New(gen.Config{Relations: 8, Card: 120, Consistent: true, Seed: seed})
		workloads = append(workloads, workload{fmt.Sprintf("gen-seed=%d", seed), dirtyWorkload(w), w.CFDs, w.CINDs})
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			want := reportStream(t, wl.db, wl.cfds, wl.cinds)
			if len(want) == 0 {
				t.Fatal("workload is clean; the test would prove nothing")
			}
			for _, width := range eachWidths {
				assertStreamIs(t, collectEach(t, context.Background(), wl.db, wl.cfds, wl.cinds, Options{Parallel: width}), want)
				if width == 1 {
					continue // no helpers to get ahead of a stalled consumer
				}
				// A consumer that stalls at its first violation lets the
				// helpers claim the units ahead of it, so the rest of the
				// stream comes from their feeds: the short stall finds some
				// still being filled, the long one most of them finished.
				for _, stall := range []time.Duration{200 * time.Microsecond, 2 * time.Millisecond} {
					var got []Violation
					if err := NewPlan(wl.db, wl.cfds, wl.cinds).Each(context.Background(), Options{Parallel: width}, func(v Violation) bool {
						if got = append(got, v); len(got) == 1 {
							time.Sleep(stall)
						}
						return true
					}); err != nil {
						t.Fatal(err)
					}
					assertStreamIs(t, got, want)
				}
			}
		})
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
		assertStreamIs(t, collectEach(t, context.Background(), db, cfds, cinds, Options{Parallel: 1}), rep.Violations())
	}

	t.Run("bank", func(t *testing.T) {
		db, cfds, cinds := heldCINDBank(t)
		check(t, db, cfds, cinds)
	})
	t.Run("gen", func(t *testing.T) {
		w := gen.New(gen.Config{Relations: 8, Card: 120, Consistent: true, Seed: 21})
		check(t, dirtyWorkload(w), w.CFDs, w.CINDs)
	})
}

// TestFeedsDrainChunksAsPublished pins the consumer side of a feed: drain
// hands each chunk to send as soon as it is published, without waiting for
// the slot to finish, and returns once the finished slot is drained. The
// producer publishes the next chunk only after send has seen the previous
// one, so a drain that waited for the whole slot would deadlock.
func TestFeedsDrainChunksAsPublished(t *testing.T) {
	const chunks = 4
	f := newFeeds(1)
	seen := make(chan int32)
	go func() {
		for c := int32(0); c < chunks; c++ {
			f.publish(0, []hit{{t1: 2 * c}, {t1: 2*c + 1}}, false)
			if <-seen != 2*c+1 {
				t.Error("drain handed over a chunk out of order")
			}
		}
		f.publish(0, nil, true)
	}()
	var got []int32
	done := make(chan bool)
	go func() {
		done <- f.drain(0, func(h hit) bool {
			if got = append(got, h.t1); h.t1%2 == 1 {
				seen <- h.t1
			}
			return true
		})
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("drain of a finished slot reported a broken send")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain waited for the slot to finish before handing over its chunks")
	}
	for i, h := range got {
		if h != int32(i) {
			t.Fatalf("drained %v, want 0..%d in order", got, 2*chunks-1)
		}
	}
	if len(got) != 2*chunks {
		t.Fatalf("drained %d hits, want %d", len(got), 2*chunks)
	}
}

// assertNoEngineGoroutines fails if the goroutine count does not settle
// back to before: Each returns only after every helper has exited, so at
// most the runtime's bookkeeping of those exits may lag for a moment.
func assertNoEngineGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("engine leaked goroutines: %d before, %d after", before, g)
	}
}

// TestEachEarlyBreakStopsWorkers is the cancellation test for the
// consumer-break direction, at every width: on a violation-heavy workload
// whose full enumeration is large, breaking after k violations must have
// yielded exactly the report's first k, return promptly — without
// enumerating the rest — and leave no engine goroutine behind.
func TestEachEarlyBreakStopsWorkers(t *testing.T) {
	db, cfds, cinds := denseDirtyBank(4000, 100)
	want := reportStream(t, db, cfds, cinds)
	for _, width := range eachWidths {
		for _, k := range []int{1, feedChunk + 44, len(want) / 2} {
			before := runtime.NumGoroutine()
			start := time.Now()
			var got []Violation
			err := NewPlan(db, cfds, cinds).Each(context.Background(), Options{Parallel: width}, func(v Violation) bool {
				got = append(got, v)
				return len(got) < k
			})
			if err != nil {
				t.Fatalf("width %d, k %d: consumer break is not an error, got %v", width, k, err)
			}
			assertStreamIs(t, got, want[:k])
			assertNoEngineGoroutines(t, before)
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("width %d, k %d: early break took %v; helpers did not stop promptly", width, k, elapsed)
			}
		}
	}
}

// TestEachCtxCancelMidStream cancels the context from inside the consumer
// at every width: the stream must end right there with the report's first
// k violations, Each must report ctx's error, and no helper may outlive it.
func TestEachCtxCancelMidStream(t *testing.T) {
	db, cfds, cinds := scaledDirtyBank(1000)
	want := reportStream(t, db, cfds, cinds)
	for _, width := range eachWidths {
		for _, k := range []int{1, feedChunk + 44} {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			var got []Violation
			err := NewPlan(db, cfds, cinds).Each(ctx, Options{Parallel: width}, func(v Violation) bool {
				if got = append(got, v); len(got) == k {
					cancel() // keep consuming; cancellation alone must end the stream
				}
				return true
			})
			cancel()
			if err != context.Canceled {
				t.Fatalf("width %d, k %d: Each after mid-stream cancel = %v, want context.Canceled", width, k, err)
			}
			assertStreamIs(t, got, want[:k])
			assertNoEngineGoroutines(t, before)
		}
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
	if err := NewPlan(bank.Data(sch), bank.CFDs(sch), bank.CINDs(sch)).Each(ctx, Options{}, func(Violation) bool {
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

// BenchmarkEachDense drains Plan.Each on a violation-dense instance (about
// 50,000 phi2 pairs) at one worker and at the default pool, so a
// per-violation handoff between the pool and the consumer shows up as the
// gap between the two. The plan is built once, outside the timer.
func BenchmarkEachDense(b *testing.B) {
	db, cfds, cinds := denseDirtyBank(3200, 100)
	p := NewPlan(db, cfds, cinds)
	for _, w := range []struct {
		name     string
		parallel int
	}{{"width=1", 1}, {"width=pool", 0}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := p.Each(context.Background(), Options{Parallel: w.parallel}, func(Violation) bool {
					n++
					return true
				}); err != nil {
					b.Fatal(err)
				}
				if n < 49000 {
					b.Fatalf("drained %d violations, want about 50,000", n)
				}
			}
		})
	}
}
