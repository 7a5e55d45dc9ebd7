package detect

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cind/internal/bank"
	"cind/internal/cfd"
	core "cind/internal/core"
	"cind/internal/gen"
	"cind/internal/instance"
	"cind/internal/pattern"
	"cind/internal/schema"
)

// ---------------------------------------------------------------------------
// Differential stream-testing harness
//
// A streamWorkload bundles a constraint set with a fresh-database factory
// and a random tuple generator. The harness drives a detect.Session and a
// full batch recompute over randomized delta scripts and asserts the two
// agree — violation for violation, in order — after every step. On
// mismatch it shrinks the script to a minimal failing sub-script and logs
// it, so a regression reads as a handful of deltas rather than a seed.
// ---------------------------------------------------------------------------

type streamWorkload struct {
	name      string
	cfds      []*cfd.CFD
	cinds     []*core.CIND
	freshDB   func() *instance.Database
	randTuple func(rng *rand.Rand) (string, instance.Tuple)
}

// bankStream builds the paper's running example with tuple generation over
// small value pools, so scripts hit projection collisions, pattern matches
// and anti-join hits with high probability.
func bankStream() *streamWorkload {
	sch := bank.Schema()
	pick := func(rng *rand.Rand, vals ...string) string { return vals[rng.Intn(len(vals))] }
	rels := []string{"checking", "saving", "interest", bank.AccountRel("NYC"), bank.AccountRel("EDI")}
	return &streamWorkload{
		name:    "bank",
		cfds:    bank.CFDs(sch),
		cinds:   bank.CINDs(sch),
		freshDB: func() *instance.Database { return bank.Data(sch) },
		randTuple: func(rng *rand.Rand) (string, instance.Tuple) {
			rel := rels[rng.Intn(len(rels))]
			an := pick(rng, "a1", "a2", "a3", "a4")
			cn := pick(rng, "Ann", "Bob", "Cal")
			ca := pick(rng, "addr1", "addr2")
			cp := pick(rng, "555", "666")
			ab := pick(rng, "NYC", "EDI", "SFO")
			switch rel {
			case "interest":
				return rel, instance.Consts(ab, pick(rng, "ck", "sv"),
					pick(rng, "saving", "checking"), pick(rng, "3%", "4%", "5%"))
			case "checking", "saving":
				return rel, instance.Consts(an, cn, ca, cp, ab)
			default: // account_*
				return rel, instance.Consts(an, cn, ca, cp, pick(rng, "saving", "checking"))
			}
		},
	}
}

// genStream wraps a generated Section 6 workload: the fresh database is the
// witness instance, and random tuples are witness tuples with a few fields
// mutated within small pools (finite attributes stay inside their domains).
func genStream(seed int64) *streamWorkload {
	w := gen.New(gen.Config{Relations: 4, MaxAttrs: 6, Card: 14, Consistent: true, Seed: seed})
	rels := w.Schema.Relations()
	return &streamWorkload{
		name:    fmt.Sprintf("gen-seed=%d", seed),
		cfds:    w.CFDs,
		cinds:   w.CINDs,
		freshDB: func() *instance.Database { return w.Witness.Clone() },
		randTuple: func(rng *rand.Rand) (string, instance.Tuple) {
			rel := rels[rng.Intn(len(rels))]
			base := w.Witness.Instance(rel.Name()).Tuples()[0]
			t := base.Clone()
			for k := rng.Intn(3); k >= 0; k-- {
				j := rng.Intn(rel.Arity())
				t[j] = instance.Const(randDomValue(rng, rel.Attrs()[j].Dom))
			}
			return rel.Name(), t
		},
	}
}

func randDomValue(rng *rand.Rand, dom *schema.Domain) string {
	if dom.IsFinite() {
		vals := dom.Values()
		return vals[rng.Intn(len(vals))]
	}
	return fmt.Sprintf("v%d", rng.Intn(5))
}

// randDelta draws the next delta: mostly inserts, with deletes split
// between tuples currently present (real deletions) and random tuples
// (mostly absent — exercising the no-op path).
func randDelta(rng *rand.Rand, w *streamWorkload, db *instance.Database) Delta {
	rel, t := w.randTuple(rng)
	r := rng.Float64()
	switch {
	case r < 0.65:
		return Ins(rel, t)
	case r < 0.90:
		// Delete an existing tuple of some relation the generator uses.
		in := db.Instance(rel)
		if in.Len() > 0 {
			return Del(rel, in.Tuples()[rng.Intn(in.Len())].Clone())
		}
		return Del(rel, t)
	default:
		return Del(rel, t)
	}
}

// recompute is the differential oracle: a full batch run over the current
// database.
func recompute(db *instance.Database, w *streamWorkload) *Report {
	return Run(db, w.cfds, w.cinds, Options{Parallel: 1})
}

func resultsEqual(a, b *Report) bool {
	return reflect.DeepEqual(a.CFD, b.CFD) && reflect.DeepEqual(a.CIND, b.CIND)
}

// replayFails re-runs a recorded script of batches on a fresh database and
// reports whether any batch diverges from the oracle (used by the shrinker;
// the session is rebuilt so the replay is self-contained).
func replayFails(w *streamWorkload, script [][]Delta) bool {
	db := w.freshDB()
	sess := NewSession(db, w.cfds, w.cinds)
	prev := sess.Report()
	for _, b := range script {
		diff, err := sess.Apply(b...)
		if err != nil {
			return true
		}
		got := sess.Report()
		if !resultsEqual(got, recompute(db, w)) || checkDiffConsistent(prev, got, diff) != "" {
			return true
		}
		prev = got
	}
	return false
}

// shrinkScript greedily minimises a failing script: it repeatedly drops
// single deltas, and batches left empty, while the replay still fails. The
// result is 1-minimal (removing any one delta makes it pass).
func shrinkScript(w *streamWorkload, script [][]Delta) [][]Delta {
	shrunk := slices.Clone(script)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(shrunk); i++ {
			for j := 0; j < len(shrunk[i]); j++ {
				cand := slices.Clone(shrunk)
				if cand[i] = slices.Delete(slices.Clone(cand[i]), j, j+1); len(cand[i]) == 0 {
					cand = slices.Delete(cand, i, i+1)
				}
				if replayFails(w, cand) {
					shrunk, changed = cand, true
					break
				}
			}
		}
	}
	return shrunk
}

func formatScript(script [][]Delta) string {
	var lines []string
	for i, b := range script {
		for j, d := range b {
			lines = append(lines, fmt.Sprintf("  %3d.%d: %s", i, j, d))
		}
	}
	return strings.Join(lines, "\n")
}

// runDifferentialScript drives one seeded script of single deltas, checking
// session-vs-batch equality and diff consistency after every step.
func runDifferentialScript(t *testing.T, w *streamWorkload, seed int64, steps int) {
	t.Helper()
	runDifferential(t, w, seed, steps, func(rng *rand.Rand, db *instance.Database, _ *Report) []Delta {
		return []Delta{randDelta(rng, w, db)}
	})
}

// runDifferential drives one seeded script of steps batches, each drawn by
// next from the database and the report before it, and checks
// session-vs-batch equality and diff consistency after every batch. On
// mismatch it shrinks and logs the minimal failing script before failing
// the test.
func runDifferential(t *testing.T, w *streamWorkload, seed int64, steps int,
	next func(rng *rand.Rand, db *instance.Database, prev *Report) []Delta) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := w.freshDB()
	sess := NewSession(db, w.cfds, w.cinds)
	script := make([][]Delta, 0, steps)
	prev := sess.Report()
	for i := 0; i < steps; i++ {
		b := next(rng, db, prev)
		script = append(script, b)
		diff, err := sess.Apply(b...)
		if err != nil {
			t.Fatalf("%s seed=%d step %d: Apply(%v): %v", w.name, seed, i, b, err)
		}
		got := sess.Report()
		want := recompute(db, w)
		if !resultsEqual(got, want) {
			min := shrinkScript(w, script)
			t.Fatalf("%s seed=%d: session diverges from batch recompute at step %d (%v)\n"+
				"got  %d violations, want %d\nminimal failing script (%d of %d batches):\n%s",
				w.name, seed, i, b, got.Total(), want.Total(), len(min), len(script), formatScript(min))
		}
		if msg := checkDiffConsistent(prev, got, diff); msg != "" {
			min := shrinkScript(w, script)
			t.Fatalf("%s seed=%d step %d (%v): inconsistent diff: %s\nminimal failing script:\n%s",
				w.name, seed, i, b, msg, formatScript(min))
		}
		prev = got
	}
}

// violationKeys flattens a result into multiset keys (constraint identity,
// tableau row, witness tuples).
func violationKeys(r *Report) map[string]int {
	m := make(map[string]int, r.Total())
	for _, v := range r.CFD {
		m[fmt.Sprintf("f%p.%d.%v%v", v.CFD, v.RowIdx, v.T1, v.T2)]++
	}
	for _, v := range r.CIND {
		m[fmt.Sprintf("i%p.%d.%v", v.CIND, v.RowIdx, v.T)]++
	}
	return m
}

// checkDiffConsistent verifies the Diff algebra: Added and Removed are
// disjoint, Removed ⊆ before, Added ⊆ after, and
// after = before − Removed + Added. Returns "" when consistent.
func checkDiffConsistent(before, after *Report, diff *Diff) string {
	b, a := violationKeys(before), violationKeys(after)
	add, rem := violationKeys(&diff.Added), violationKeys(&diff.Removed)
	for k := range add {
		if rem[k] > 0 {
			return fmt.Sprintf("Added and Removed overlap on %s", k)
		}
		if a[k] == 0 {
			return fmt.Sprintf("Added violation %s missing from after-report", k)
		}
	}
	for k := range rem {
		if b[k] == 0 {
			return fmt.Sprintf("Removed violation %s missing from before-report", k)
		}
	}
	// after == before - removed + added, as multisets.
	derived := make(map[string]int, len(b))
	for k, n := range b {
		derived[k] = n
	}
	for k, n := range rem {
		derived[k] -= n
	}
	for k, n := range add {
		derived[k] += n
	}
	for k, n := range derived {
		if n != a[k] {
			return fmt.Sprintf("before−Removed+Added has %d of %s, after-report has %d", n, k, a[k])
		}
	}
	for k, n := range a {
		if derived[k] != n {
			return fmt.Sprintf("after-report has %d of %s, before−Removed+Added has %d", n, k, derived[k])
		}
	}
	return ""
}

// TestSessionDifferentialStreams is the harness entry point: ~10k
// randomized deltas across seeded scripts on the bank workload and several
// generated workloads, each step checked against the batch oracle.
func TestSessionDifferentialStreams(t *testing.T) {
	bankScripts, bankSteps := 50, 70
	genSeeds, genScripts, genSteps := []int64{1, 2, 3, 4, 5}, 25, 55
	if testing.Short() {
		bankScripts, genSeeds, genScripts = 10, []int64{1, 2}, 6
	}
	t.Run("bank", func(t *testing.T) {
		w := bankStream()
		for s := 0; s < bankScripts; s++ {
			runDifferentialScript(t, w, int64(1000+s), bankSteps)
		}
	})
	for _, seed := range genSeeds {
		seed := seed
		t.Run(fmt.Sprintf("gen-seed=%d", seed), func(t *testing.T) {
			w := genStream(seed)
			for s := 0; s < genScripts; s++ {
				runDifferentialScript(t, w, int64(2000+s), genSteps)
			}
		})
	}
}

// TestSessionSeedsFromDirtyInitialState checks that NewSession absorbs a
// database that already has violations (the report must match without any
// Apply), including the scaled dirty workload of the batch tests.
func TestSessionSeedsFromDirtyInitialState(t *testing.T) {
	db, cfds, cinds := scaledDirtyBank(200)
	w := &streamWorkload{name: "dirty", cfds: cfds, cinds: cinds}
	sess := NewSession(db, cfds, cinds)
	if got, want := sess.Report(), recompute(db, w); !resultsEqual(got, want) {
		t.Fatalf("seeded session reports %d violations, batch %d", got.Total(), want.Total())
	}
	if sess.Report().Total() < 100 {
		t.Fatalf("dirty workload lost its point: %d violations", sess.Report().Total())
	}
}

// ---------------------------------------------------------------------------
// Property tests for the delta algebra
// ---------------------------------------------------------------------------

// TestSessionInsertThenDeleteIsNoOp: Apply(insert t); Apply(delete t)
// returns the report to its previous value, and the two diffs are inverse.
func TestSessionInsertThenDeleteIsNoOp(t *testing.T) {
	for _, w := range []*streamWorkload{bankStream(), genStream(7)} {
		t.Run(w.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			db := w.freshDB()
			sess := NewSession(db, w.cfds, w.cinds)
			for i := 0; i < 200; i++ {
				rel, tu := w.randTuple(rng)
				if db.Instance(rel).Contains(tu) {
					continue // insert would be a no-op; delete would not invert it
				}
				before := sess.Report()
				d1, err := sess.Apply(Ins(rel, tu))
				if err != nil {
					t.Fatal(err)
				}
				d2, err := sess.Apply(Del(rel, tu))
				if err != nil {
					t.Fatal(err)
				}
				after := sess.Report()
				if !resultsEqual(before, after) {
					t.Fatalf("step %d: insert+delete of %s%v changed the report: %d -> %d violations",
						i, rel, tu, before.Total(), after.Total())
				}
				if !reflect.DeepEqual(violationKeys(&d1.Added), violationKeys(&d2.Removed)) ||
					!reflect.DeepEqual(violationKeys(&d1.Removed), violationKeys(&d2.Added)) {
					t.Fatalf("step %d: diffs are not inverse:\ninsert %v\ndelete %v", i, d1, d2)
				}
			}
		})
	}
}

// TestSessionBatchEqualsElementwise: applying a script as one batch yields
// the same report as applying it delta by delta, and the batch Diff is the
// net of the element diffs.
func TestSessionBatchEqualsElementwise(t *testing.T) {
	for _, w := range []*streamWorkload{bankStream(), genStream(8)} {
		t.Run(w.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(300 + seed))
				// Generate the script against a scratch database so both
				// sessions replay the identical delta sequence.
				scratch := w.freshDB()
				script := make([]Delta, 0, 40)
				for i := 0; i < 40; i++ {
					d := randDelta(rng, w, scratch)
					script = append(script, d)
					switch d.Op {
					case OpInsert:
						scratch.Insert(d.Rel, d.Tuple)
					case OpDelete:
						scratch.Delete(d.Rel, d.Tuple)
					}
				}

				dbA := w.freshDB()
				sessA := NewSession(dbA, w.cfds, w.cinds)
				sessA.Report() // populate the cache so staleness after Apply would show
				batchDiff, err := sessA.Apply(script...)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := sessA.Report(), recompute(dbA, w); !resultsEqual(got, want) {
					t.Fatalf("seed %d: batch-applied session diverges from recompute", seed)
				}

				dbB := w.freshDB()
				sessB := NewSession(dbB, w.cfds, w.cinds)
				net := map[string]int{}
				for _, d := range script {
					diff, err := sessB.Apply(d)
					if err != nil {
						t.Fatal(err)
					}
					for k, n := range violationKeys(&diff.Added) {
						net[k] += n
					}
					for k, n := range violationKeys(&diff.Removed) {
						net[k] -= n
					}
				}
				if !resultsEqual(sessA.Report(), sessB.Report()) {
					t.Fatalf("seed %d: batch and element-wise application disagree: %d vs %d violations",
						seed, sessA.Report().Total(), sessB.Report().Total())
				}
				batchNet := map[string]int{}
				for k, n := range violationKeys(&batchDiff.Added) {
					batchNet[k] += n
				}
				for k, n := range violationKeys(&batchDiff.Removed) {
					batchNet[k] -= n
				}
				for k, n := range net {
					if n == 0 {
						delete(net, k)
					}
				}
				for k, n := range batchNet {
					if n == 0 {
						delete(batchNet, k)
					}
				}
				if !reflect.DeepEqual(net, batchNet) {
					t.Fatalf("seed %d: batch diff is not the net of element diffs\nbatch: %v\nnet:   %v",
						seed, batchNet, net)
				}
			}
		})
	}
}

// TestSessionApplyValidation: a bad batch is rejected whole and leaves the
// report untouched.
func TestSessionApplyValidation(t *testing.T) {
	w := bankStream()
	db := w.freshDB()
	sess := NewSession(db, w.cfds, w.cinds)
	before := sess.Report()
	size := db.Size()

	cases := []struct {
		name  string
		delta Delta
	}{
		{"unknown relation", Ins("nope", instance.Consts("a"))},
		{"arity mismatch", Ins("checking", instance.Consts("a", "b"))},
		{"invalid op", Delta{Op: 99, Rel: "checking", Tuple: instance.Consts("a", "b", "c", "d", "e")}},
	}
	for _, tc := range cases {
		// A valid leading delta must not be applied when a later one fails.
		if _, err := sess.Apply(Ins("checking", instance.Consts("z1", "z2", "z3", "z4", "NYC")), tc.delta); err == nil {
			t.Fatalf("%s: Apply accepted a bad batch", tc.name)
		}
		if db.Size() != size {
			t.Fatalf("%s: rejected batch still mutated the database", tc.name)
		}
		if !resultsEqual(sess.Report(), before) {
			t.Fatalf("%s: rejected batch changed the report", tc.name)
		}
	}

	// Duplicate insert and absent delete are silent no-ops.
	existing := db.Instance("checking").Tuples()[0].Clone()
	diff, err := sess.Apply(Ins("checking", existing), Del("interest", instance.Consts("X", "X", "saving", "9%")))
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Empty() {
		t.Fatalf("no-op batch produced diff %v", diff)
	}
}

// TestSessionCancellingBatchKeepsOrder: a batch whose diff nets to empty
// (delete t, re-insert t) still reorders the instance, so a previously
// published version must be replaced — order parity with the batch engine
// is part of the contract.
func TestSessionCancellingBatchKeepsOrder(t *testing.T) {
	d := schema.Infinite("d")
	rel := schema.MustRelation("r",
		schema.Attribute{Name: "a", Dom: d}, schema.Attribute{Name: "b", Dom: d})
	sch, err := schema.New(rel)
	if err != nil {
		t.Fatal(err)
	}
	// Wild LHS, constant RHS: every tuple with b != c is a singleton violation.
	phi := cfd.MustNew(sch, "phi", "r", []string{"a"}, []string{"b"},
		[]cfd.Row{{LHS: pattern.Tup(pattern.Wild), RHS: pattern.Tup(pattern.Sym("c"))}})
	db := instance.NewDatabase(sch)
	x := instance.Consts("x", "1")
	y := instance.Consts("y", "2")
	db.Insert("r", x)
	db.Insert("r", y)

	w := &streamWorkload{name: "order", cfds: []*cfd.CFD{phi}}
	sess := NewSession(db, w.cfds, nil)
	if got := sess.Report(); got.Total() != 2 { // also publishes the version
		t.Fatalf("want 2 singleton violations, got %d", got.Total())
	}
	diff, err := sess.Apply(Del("r", x), Ins("r", x))
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Empty() {
		t.Fatalf("cancelling batch must have an empty diff, got %v", diff)
	}
	if got, want := sess.Report(), recompute(db, w); !resultsEqual(got, want) {
		t.Fatalf("published version is stale after cancelling batch:\ngot  %v\nwant %v", got.CFD, want.CFD)
	}
	if got := sess.Report().CFD; !got[0].T1.Eq(y) || !got[1].T1.Eq(x) {
		t.Fatalf("re-inserted tuple must report last: %v", got)
	}
}

// TestSessionCompactionUnderChurn: insert/delete churn on a small live set
// must not grow the resident coded relations without bound, and compaction
// must be semantically invisible.
func TestSessionCompactionUnderChurn(t *testing.T) {
	w := bankStream()
	db := w.freshDB()
	sess := NewSession(db, w.cfds, w.cinds)
	for i := 0; i < 6000; i++ {
		tu := instance.Consts(fmt.Sprintf("a%d", i%7), "Churn", "addr", "555", "EDI")
		if _, err := sess.Apply(Ins("checking", tu), Del("checking", tu)); err != nil {
			t.Fatal(err)
		}
	}
	rows := len(sess.rels["checking"].tuples)
	if rows > 5000 {
		t.Fatalf("resident checking relation holds %d rows after churn on a ~%d-tuple live set; compaction did not run",
			rows, db.Instance("checking").Len())
	}
	if got, want := sess.Report(), recompute(db, w); !resultsEqual(got, want) {
		t.Fatalf("report diverges after compaction: %d vs %d violations", got.Total(), want.Total())
	}
	// The session must keep working across the rebuild boundary.
	runDifferentialScriptOn(t, w, sess, db, 500, 40)
}

// runDifferentialScriptOn continues a differential check on an existing
// session (used to cross compaction and other internal state transitions).
func runDifferentialScriptOn(t *testing.T, w *streamWorkload, sess *Session, db *instance.Database, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		d := randDelta(rng, w, db)
		if _, err := sess.Apply(d); err != nil {
			t.Fatalf("step %d: Apply(%s): %v", i, d, err)
		}
		if got, want := sess.Report(), recompute(db, w); !resultsEqual(got, want) {
			t.Fatalf("step %d (%s): session diverges from batch recompute", i, d)
		}
	}
}
