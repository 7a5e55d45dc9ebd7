// Package implication decides implication of CINDs: given Σ and ψ, whether
// Σ ⊨ ψ. The problem is PSPACE-complete without finite-domain attributes
// and EXPTIME-complete with them (Theorems 3.4/3.5), so the practical
// decision procedure here is budgeted; within its budget it is sound in
// both directions and returns Unknown when a budget trips.
//
// Two independent engines are combined:
//
//   - the inference system I (package inference), which yields positive
//     answers with a replayable proof (Theorem 3.3: I is sound and
//     complete);
//   - a canonical-database chase: seed a single generic tuple matching ψ's
//     LHS pattern, chase with Σ, and inspect the fixpoint. A fixpoint in
//     which the goal match exists is universal (every model of Σ containing
//     a matching tuple contains a homomorphic image of it), giving Implied;
//     a grounded fixpoint in which the match is absent is itself a model of
//     Σ violating ψ, giving NotImplied with a counterexample database.
//
// Finite-domain attributes are handled by case analysis over their values
// (bounded by Options.MaxValuations) — the source of the EXPTIME lower
// bound, and the reason the budget exists.
package implication

import (
	"context"
	"fmt"
	"sync/atomic"

	"cind/internal/chase"
	"cind/internal/conc"
	cind "cind/internal/core"
	"cind/internal/inference"
	"cind/internal/instance"
	"cind/internal/schema"
	"cind/internal/types"
)

// Verdict is the outcome of an implication check.
type Verdict int

const (
	// Implied: Σ ⊨ ψ, with a proof or a universal chase argument.
	Implied Verdict = iota
	// NotImplied: a counterexample database satisfies Σ but violates ψ.
	NotImplied
	// Unknown: budgets exhausted before either certificate was found.
	Unknown
)

func (v Verdict) String() string {
	switch v {
	case Implied:
		return "implied"
	case NotImplied:
		return "not-implied"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Outcome carries the verdict and its certificate.
type Outcome struct {
	Verdict Verdict
	// Proof is set when the verdict came from the inference system.
	Proof *inference.Proof
	// Counterexample is a ground database satisfying Σ and violating ψ,
	// set on NotImplied.
	Counterexample *instance.Database
	// Reason is a one-line human explanation.
	Reason string
}

// Options budgets the decision procedure. Zero values give workable
// defaults.
type Options struct {
	Inference     inference.Options
	ChaseSteps    int // per-branch chase step cap (default 20000)
	TableCap      int // per-branch table cap (default 1000)
	MaxValuations int // finite-domain case-split cap (default 64)
	// Parallel bounds the worker goroutines the finite-domain case-split
	// branches fan out over (and, in DecideAll, the goals); 0 means
	// GOMAXPROCS, 1 forces the sequential order. The outcome — verdict and
	// certificate — is identical regardless.
	Parallel int
}

func (o Options) withDefaults() Options {
	if o.ChaseSteps == 0 {
		o.ChaseSteps = 20000
	}
	if o.TableCap == 0 {
		o.TableCap = 1000
	}
	if o.MaxValuations == 0 {
		o.MaxValuations = 64
	}
	return o
}

// Decide determines whether sigma ⊨ psi. A nil goal comes back as Unknown
// (never as the zero Outcome, whose Verdict would read Implied).
func Decide(sch *schema.Schema, sigma []*cind.CIND, psi *cind.CIND, opts Options) Outcome {
	out, err := DecideContext(context.Background(), sch, sigma, psi, opts)
	if err != nil {
		return Outcome{Verdict: Unknown, Reason: err.Error()}
	}
	return out
}

// DecideContext is Decide with cooperative cancellation and a parallel
// fan-out over the finite-domain case-split branches: the canonical seeds
// of each goal component are independent, so they chase on a bounded
// worker pool (Options.Parallel; 0 = GOMAXPROCS) and merge
// deterministically — the verdict, and on refutation the counterexample of
// the lowest-numbered refuting branch, are identical to the sequential
// enumeration regardless of scheduling. Cancellation is polled per branch
// and per chase operation inside each branch; on cancellation the partial
// outcome is discarded, ctx's error is returned, and every worker has
// exited before DecideContext returns (no goroutine outlives the call).
func DecideContext(ctx context.Context, sch *schema.Schema, sigma []*cind.CIND, psi *cind.CIND, opts Options) (Outcome, error) {
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	if psi == nil {
		return Outcome{}, fmt.Errorf("implication: nil goal")
	}
	return decide(ctx, sch, sigma, inference.Prepare(sch, sigma), psi, opts.withDefaults())
}

// decide is DecideContext with sigma already prepared for the inference
// system and opts defaulted; prep is only read, so concurrent calls share
// it.
func decide(ctx context.Context, sch *schema.Schema, sigma []*cind.CIND, prep *inference.Sigma, psi *cind.CIND, opts Options) (Outcome, error) {
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	// Fast path and positive certificate: the inference system.
	if proof, ok := inference.Derive(ctx, prep, psi, opts.Inference); ok {
		return Outcome{Verdict: Implied, Proof: proof, Reason: "derived in inference system I"}, nil
	}
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}

	// Chase every normal-form component of the goal.
	goals := cind.NormalizeAll([]*cind.CIND{psi})
	allImplied := true
	for _, g := range goals {
		out, err := decideComponent(ctx, sch, sigma, g, opts)
		if err != nil {
			return Outcome{}, err
		}
		switch out.Verdict {
		case NotImplied:
			return out, nil
		case Unknown:
			allImplied = false
		}
	}
	if allImplied {
		return Outcome{Verdict: Implied, Reason: "universal chase contains the required match in every branch"}, nil
	}
	return Outcome{Verdict: Unknown, Reason: "budgets exhausted before a certificate was found"}, nil
}

// DecideAll is the batch form: it decides sigma ⊨ psi for every goal and
// returns the outcomes in goal order, identical to calling Decide per
// goal. A single goal keeps the full case-split branch fan-out; multiple
// goals fan out at the goal level instead (each goal's branch enumeration
// then runs sequentially, so the pool is not oversubscribed). On
// cancellation the partial slice is discarded and ctx's error returned.
func DecideAll(ctx context.Context, sch *schema.Schema, sigma []*cind.CIND, psis []*cind.CIND, opts Options) ([]Outcome, error) {
	opts = opts.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, psi := range psis {
		if psi == nil {
			return nil, fmt.Errorf("implication: goal %d is nil", i)
		}
	}
	prep := inference.Prepare(sch, sigma)
	if len(psis) == 1 {
		out, err := decide(ctx, sch, sigma, prep, psis[0], opts)
		if err != nil {
			return nil, err
		}
		return []Outcome{out}, nil
	}
	out := make([]Outcome, len(psis))
	goalOpts := opts
	goalOpts.Parallel = 1
	conc.ForEachIdx(conc.Workers(opts.Parallel, len(psis)), len(psis), func(i int) {
		// Errors are dropped per goal: the only error decide can return is
		// cancellation, which the merge below re-checks (and which makes
		// the remaining calls immediate no-ops).
		out[i], _ = decide(ctx, sch, sigma, prep, psis[i], goalOpts)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// decideComponent runs the canonical-database analysis for one normal-form
// goal component.
func decideComponent(ctx context.Context, sch *schema.Schema, sigma []*cind.CIND, g *cind.CIND, opts Options) (Outcome, error) {
	rel := sch.MustRelationByName(g.LHSRel)

	// Identify the seed tuple's fixed and enumerated positions.
	xpIdx := map[string]string{} // attr -> constant from g's Xp
	xpPat := g.XpPattern()
	for i, a := range g.Xp {
		xpIdx[a] = xpPat[i].Const()
	}

	var enums []enumAttr
	seedBase := make(instance.Tuple, rel.Arity())
	frozen := 0
	for j, a := range rel.Attrs() {
		if c, ok := xpIdx[a.Name]; ok {
			seedBase[j] = types.C(c)
			continue
		}
		if a.Dom.IsFinite() {
			enums = append(enums, enumAttr{pos: j, vals: a.Dom.Values()})
			continue
		}
		frozen++
		seedBase[j] = types.C(fmt.Sprintf("⊥seed%d", frozen))
	}

	// Materialise the finite-domain valuations of the seed, up to the cap;
	// capped enumeration can never conclude Implied.
	var seeds []instance.Tuple
	capped := false
	enumerate(enums, seedBase, func(seed instance.Tuple) bool {
		if len(seeds) >= opts.MaxValuations {
			capped = true
			return false
		}
		seeds = append(seeds, seed)
		return true
	})

	verdicts := make([]Verdict, len(seeds))
	counters := make([]*instance.Database, len(seeds))

	// Branch fan-out. A refutation at branch i makes every branch above i
	// irrelevant (the merge picks the lowest refuting branch), so later
	// branches are skipped once one refutes; branches below a found
	// refutation still run, keeping the reported counterexample
	// deterministic. With one worker the indexes run in order, so the skip
	// check reduces to the classical stop-at-first-refutation.
	minRefuted := int64(len(seeds))
	conc.ForEachIdx(conc.Workers(opts.Parallel, len(seeds)), len(seeds), func(i int) {
		if int64(i) > atomic.LoadInt64(&minRefuted) {
			return
		}
		v, cex, err := chaseBranch(ctx, sch, sigma, g, seeds[i], opts)
		if err != nil {
			return // cancellation: the merge re-checks ctx
		}
		verdicts[i], counters[i] = v, cex
		if v == NotImplied {
			for {
				cur := atomic.LoadInt64(&minRefuted)
				if int64(i) >= cur || atomic.CompareAndSwapInt64(&minRefuted, cur, int64(i)) {
					break
				}
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}

	branchImplied := 0
	for i := range seeds {
		switch verdicts[i] {
		case NotImplied:
			return Outcome{
				Verdict:        NotImplied,
				Counterexample: counters[i],
				Reason:         "chase fixpoint is a model of Σ violating ψ",
			}, nil
		case Implied:
			branchImplied++
		}
	}
	if !capped && branchImplied == len(seeds) {
		return Outcome{Verdict: Implied, Reason: "all canonical branches contain the required match"}, nil
	}
	return Outcome{Verdict: Unknown, Reason: "some chase branch was inconclusive"}, nil
}

// enumAttr is a seed-tuple position whose finite domain is enumerated.
type enumAttr struct {
	pos  int
	vals []string
}

// enumerate calls visit for every combination of the enumerated attribute
// values layered over base. visit returning false stops the enumeration.
func enumerate(enums []enumAttr, base instance.Tuple, visit func(instance.Tuple) bool) {
	var rec func(i int, cur instance.Tuple) bool
	rec = func(i int, cur instance.Tuple) bool {
		if i == len(enums) {
			return visit(cur.Clone())
		}
		for _, v := range enums[i].vals {
			cur[enums[i].pos] = types.C(v)
			if !rec(i+1, cur) {
				return false
			}
		}
		return true
	}
	rec(0, base.Clone())
}

// chaseBranch analyses one canonical seed: it runs the universal
// (fresh-variable) chase for the positive direction and, if that leaves the
// goal unmatched, the instantiated chase for the refutation direction. A
// non-nil error reports cancellation and nothing else.
func chaseBranch(ctx context.Context, sch *schema.Schema, sigma []*cind.CIND, g *cind.CIND,
	seed instance.Tuple, opts Options) (Verdict, *instance.Database, error) {

	// Universal chase: unbounded fresh variables (N = 0).
	uni := chase.New(sch, nil, sigma, chase.Config{
		N: 0, MaxSteps: opts.ChaseSteps, TableCap: opts.TableCap,
	})
	uni.InsertTuple(g.LHSRel, seed.Clone())
	uniRes := uni.RunContext(ctx)
	if uniRes == chase.Cancelled {
		return Unknown, nil, ctx.Err()
	}
	if uniRes == chase.Fixpoint && seedHasMatch(uni.DB(), g, seed) {
		return Implied, nil, nil
	}

	// Refutation: instantiated chase, then ground and verify.
	inst := chase.New(sch, nil, sigma, chase.Config{
		N: 0, MaxSteps: opts.ChaseSteps, TableCap: opts.TableCap,
		InstantiateFinite: true,
	})
	inst.InsertTuple(g.LHSRel, seed.Clone())
	switch inst.RunContext(ctx) {
	case chase.Fixpoint:
	case chase.Cancelled:
		return Unknown, nil, ctx.Err()
	default:
		return Unknown, nil, nil
	}
	avoid := map[string]bool{}
	for _, c := range constantsOf(sigma, g) {
		avoid[c] = true
	}
	for _, v := range seed {
		if v.IsConst() {
			avoid[v.Str()] = true
		}
	}
	ground, ok := inst.DB().Ground(inst.VarDomain, avoid)
	if !ok {
		return Unknown, nil, nil
	}
	// Belt and braces: the grounded fixpoint must satisfy Σ.
	if !cind.SatisfiedAll(sigma, ground) {
		return Unknown, nil, nil
	}
	if seedViolates(ground, g, seed) {
		return NotImplied, ground, nil
	}
	// The instantiated branch happened to satisfy the goal; the universal
	// branch did not prove it, so this branch stays inconclusive.
	return Unknown, nil, nil
}

// seedHasMatch reports whether the specific seed tuple has the RHS match g
// requires within db.
func seedHasMatch(db *instance.Database, g *cind.CIND, seed instance.Tuple) bool {
	for _, v := range g.Violations(db) {
		if v.T.Eq(seed) {
			return false
		}
	}
	return true
}

// seedViolates reports whether the seed tuple is a g-violation in db.
func seedViolates(db *instance.Database, g *cind.CIND, seed instance.Tuple) bool {
	return !seedHasMatch(db, g, seed)
}

func constantsOf(sigma []*cind.CIND, g *cind.CIND) []string {
	var out []string
	for _, c := range sigma {
		out = append(out, c.Constants()...)
	}
	out = append(out, g.Constants()...)
	return out
}

// MinimalCover removes from sigma every CIND implied by the others — the
// "minimal cover" computation the paper's conclusion lists as the natural
// application of implication analysis. Because implication is undecidable
// to decide exactly in general (and expensive even for pure CINDs), only
// members with a definitive Implied verdict are dropped; the result is
// therefore equivalent to sigma but not necessarily globally minimal.
func MinimalCover(sch *schema.Schema, sigma []*cind.CIND, opts Options) []*cind.CIND {
	out, _ := MinimalCoverContext(context.Background(), sch, sigma, opts)
	return out
}

// MinimalCoverContext is MinimalCover with cooperative cancellation
// threaded into every implication decision. On cancellation it returns
// ctx's error and a nil cover.
func MinimalCoverContext(ctx context.Context, sch *schema.Schema, sigma []*cind.CIND, opts Options) ([]*cind.CIND, error) {
	cover, _, err := MinimalCoverCertified(ctx, sch, sigma, opts)
	return cover, err
}

// Drop records one member MinimalCoverCertified removed: its position in
// the original sigma and the Implied outcome — a proof in the inference
// system or a universal-chase argument over the members remaining at drop
// time — that justified the removal.
type Drop struct {
	Index   int
	Outcome Outcome
}

// MinimalCoverCertified is MinimalCoverContext returning, alongside the
// cover, one certificate per removed member, in original sigma order.
// Members are tracked by position, so a sigma listing the same *CIND
// pointer twice is handled like any other redundancy: one occurrence is
// dropped (the rest implies it), the other judged on its own.
func MinimalCoverCertified(ctx context.Context, sch *schema.Schema, sigma []*cind.CIND, opts Options) ([]*cind.CIND, []Drop, error) {
	opts = opts.withDefaults()
	for i, psi := range sigma {
		if psi == nil {
			return nil, nil, fmt.Errorf("implication: member %d is nil", i)
		}
	}
	// Σ is canonicalized for the inference system once; each decision
	// reads the prepared members that remain.
	prep := inference.Prepare(sch, sigma)
	cur := make([]int, len(sigma)) // positions in sigma of the members kept so far
	for i := range sigma {
		cur[i] = i
	}
	var drops []Drop
	for i := 0; i < len(cur); {
		restIdx := make([]int, 0, len(cur)-1)
		restIdx = append(append(restIdx, cur[:i]...), cur[i+1:]...)
		rest := make([]*cind.CIND, len(restIdx))
		for k, j := range restIdx {
			rest[k] = sigma[j]
		}
		dec, err := decide(ctx, sch, rest, prep.Subset(restIdx), sigma[cur[i]], opts)
		if err != nil {
			return nil, nil, err
		}
		if dec.Verdict == Implied {
			drops = append(drops, Drop{Index: cur[i], Outcome: dec})
			cur = append(cur[:i], cur[i+1:]...)
			continue
		}
		i++
	}
	cover := make([]*cind.CIND, len(cur))
	for i, j := range cur {
		cover[i] = sigma[j]
	}
	return cover, drops, nil
}

// Equivalent reports whether the two sets imply each other, with Unknown
// verdicts treated as failure (conservative).
func Equivalent(sch *schema.Schema, a, b []*cind.CIND, opts Options) bool {
	for _, psi := range a {
		if Decide(sch, b, psi, opts).Verdict != Implied {
			return false
		}
	}
	for _, psi := range b {
		if Decide(sch, a, psi, opts).Verdict != Implied {
			return false
		}
	}
	return true
}
