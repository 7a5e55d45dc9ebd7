// Package chase implements the extended chase of Section 5.1: the
// IND(ψ) and FD(φ) chase operations over database templates with variables,
// chasing sequences, and the bounded instantiated chase chaseI used by the
// consistency-checking algorithms of Section 5.2.
//
// The chase draws unknown values from per-attribute variable pools var[A]
// of maximum size N; because the value universe is then finite, chasing
// always terminates (the paper's termination argument). Setting N = 0
// switches to unbounded fresh variables — the classical chase — which is
// what the implication analysis uses, guarded by a step limit.
package chase

import (
	"context"
	"fmt"
	"math/rand"

	"cind/internal/cfd"
	"cind/internal/conc"
	cind "cind/internal/core"
	"cind/internal/instance"
	"cind/internal/pattern"
	"cind/internal/schema"
	"cind/internal/types"
)

// Result classifies the outcome of a chase run.
type Result int

const (
	// Fixpoint: every chase operation is a no-op; chase(D, Σ) is defined
	// and the final template satisfies Σ (with variables read as distinct
	// unknowns).
	Fixpoint Result = iota
	// Undefined: an FD(φ) operation hit a constant conflict — chase(D, Σ)
	// is undefined in the paper's sense.
	Undefined
	// CapExceeded: a relation outgrew the table cap T; the paper's chaseI
	// declares the chase undefined in this case too, but callers may want
	// to distinguish it, so it is reported separately.
	CapExceeded
	// StepLimit: the safety cap on operations was reached (only possible
	// with unbounded variables); the run is inconclusive.
	StepLimit
	// Cancelled: RunContext observed a cancelled context and stopped; the
	// run is inconclusive and the template is mid-chase.
	Cancelled
)

func (r Result) String() string {
	switch r {
	case Fixpoint:
		return "fixpoint"
	case Undefined:
		return "undefined"
	case CapExceeded:
		return "cap-exceeded"
	case StepLimit:
		return "step-limit"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// Config tunes a chase run. The zero Config gives the paper's defaults:
// N = 2 (Section 6 fixes N = 2 after finding larger N has negligible
// impact), T = 2000, deterministic order, fresh-variable instantiation of
// finite-domain attributes disabled.
type Config struct {
	// N is the var[A] pool size; 0 means unbounded fresh variables.
	N int
	// TableCap is T, the maximum tuples per relation (0 = 2000).
	TableCap int
	// MaxSteps caps applied operations (0 = 100000).
	MaxSteps int
	// Rng, when non-nil, randomises the order in which constraints and
	// tuples are chased — the behaviour of RandomChecking. Nil keeps the
	// deterministic textual order, which tests rely on.
	Rng *rand.Rand
	// InstantiateFinite enables the chaseI modification (a) of Section 5.2:
	// finite-domain attributes must not survive as variables. Following the
	// "Improvement" paragraph, new tuples still receive variables so the
	// CFD chase can bind them consistently; whenever a fixpoint is reached
	// with finite-domain variables left, Run valuates them — preferring
	// inert values that match no pattern constant — and resumes chasing,
	// until a fixpoint with no finite-domain variables remains.
	InstantiateFinite bool
}

func (c Config) withDefaults() Config {
	if c.TableCap == 0 {
		c.TableCap = 2000
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 100000
	}
	return c
}

// Chaser runs chase sequences for a fixed Σ of CFDs and CINDs over one
// database template. Not safe for concurrent use.
type Chaser struct {
	sch   *schema.Schema
	cfds  []*cfd.CFD
	cinds []*cind.CIND
	cfg   Config

	db     *instance.Database
	gen    types.VarGen
	pools  map[string]*types.Pool   // rel "." attr -> pool
	varDom map[int64]*schema.Domain // variable id -> its attribute domain
	// sigmaConsts holds every constant appearing in Σ; valuation prefers
	// finite-domain values outside this set, which cannot trigger any
	// pattern.
	sigmaConsts map[string]bool
	steps       int
	reused      bool
	// fdClean[i] is the Version of cfds[i]'s relation instance after the
	// last FD pass of cfds[i] that changed nothing; while the instance
	// still has that version, the pass is skipped (see fdFixpoint).
	fdClean []version
	// fdVisits counts the FD passes fdFixpoint considered, fdPasses those
	// it ran; tests compare them.
	fdVisits, fdPasses int
	// stop is the cancellation poll of the active RunContext; nil outside
	// a run (and for plain Run, which cannot be cancelled).
	stop func() bool
}

// New builds a chaser. Constraints are normalised internally; the template
// starts empty (seed it with SeedFreshTuple or InsertTuple).
func New(sch *schema.Schema, cfds []*cfd.CFD, cinds []*cind.CIND, cfg Config) *Chaser {
	consts := map[string]bool{}
	for _, c := range cfds {
		for _, v := range c.Constants() {
			consts[v] = true
		}
	}
	for _, c := range cinds {
		for _, v := range c.Constants() {
			consts[v] = true
		}
	}
	normCFDs := cfd.NormalizeAll(cfds)
	return &Chaser{
		sch:         sch,
		cfds:        normCFDs,
		fdClean:     make([]version, len(normCFDs)),
		cinds:       cind.NormalizeAll(cinds),
		cfg:         cfg.withDefaults(),
		db:          instance.NewDatabase(sch),
		pools:       map[string]*types.Pool{},
		varDom:      map[int64]*schema.Domain{},
		sigmaConsts: consts,
	}
}

// DB exposes the current template. Callers must not mutate it directly.
func (c *Chaser) DB() *instance.Database { return c.db }

// Steps returns the number of chase operations applied so far.
func (c *Chaser) Steps() int { return c.steps }

// Exact reports whether the run so far is a faithful prefix of the
// unbounded chase: no variable pool wrapped around. A Fixpoint result with
// Exact() true is a genuine fixpoint of the classical chase.
func (c *Chaser) Exact() bool { return !c.reused }

// VarDomain returns the domain of the attribute a variable was created
// for, or nil for unknown variables.
func (c *Chaser) VarDomain(id int64) *schema.Domain { return c.varDom[id] }

// FiniteVars returns the variables currently in the template whose
// attribute domains are finite — the set V of Section 5.2 that valuations
// range over.
func (c *Chaser) FiniteVars() []types.Value {
	var out []types.Value
	for _, v := range c.db.Vars() {
		if d := c.varDom[v.VarID()]; d != nil && d.IsFinite() {
			out = append(out, v)
		}
	}
	return out
}

// freshVar allocates a variable for rel.attr, from the pool when N > 0.
func (c *Chaser) freshVar(rel, attr string, dom *schema.Domain) types.Value {
	if c.cfg.N <= 0 {
		v := c.gen.Fresh(attr)
		c.varDom[v.VarID()] = dom
		return v
	}
	key := rel + "." + attr
	p := c.pools[key]
	if p == nil {
		p = types.NewPool(&c.gen, attr, c.cfg.N)
		c.pools[key] = p
	}
	v := p.Next()
	if p.Reused() {
		c.reused = true
	}
	c.varDom[v.VarID()] = dom
	return v
}

// SeedFreshTuple inserts a tuple of fresh variables into rel — step 1 of
// RandomChecking — and returns it.
func (c *Chaser) SeedFreshTuple(rel string) instance.Tuple {
	r := c.sch.MustRelationByName(rel)
	t := make(instance.Tuple, r.Arity())
	for i, a := range r.Attrs() {
		t[i] = c.freshVar(rel, a.Name, a.Dom)
	}
	c.db.Insert(rel, t)
	return t
}

// InsertTuple inserts a caller-built tuple (e.g. the frozen LHS tuple of an
// implication check).
func (c *Chaser) InsertTuple(rel string, t instance.Tuple) {
	c.db.Insert(rel, t)
}

// SubstituteVar applies a valuation entry ρ(v) = val to the template.
func (c *Chaser) SubstituteVar(id int64, val types.Value) {
	c.db.SubstituteVar(id, val)
}

// Run chases to fixpoint or failure: it alternates FD(φ) passes (to their
// own fixpoint) with single IND(ψ) applications, which matches the
// "Improvement" of Section 5.2 — every tuple insertion is followed by a
// full CFD chase before the next CIND fires. Under InstantiateFinite, a
// fixpoint with finite-domain variables left triggers a valuation round
// followed by more chasing, until no finite-domain variable survives.
func (c *Chaser) Run() Result {
	return c.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: every chase operation —
// each FD pass over a constraint and each IND application — polls ctx, so
// a cancelled run stops within one operation of the observation and
// returns Cancelled. A Background (non-cancellable) context costs a single
// nil check per poll.
func (c *Chaser) RunContext(ctx context.Context) Result {
	c.stop = conc.StopFunc(ctx)
	defer func() { c.stop = nil }()
	for {
		if c.stop() {
			return Cancelled
		}
		res := c.runCore()
		if res != Fixpoint || !c.cfg.InstantiateFinite {
			return res
		}
		fv := c.FiniteVars()
		if len(fv) == 0 {
			return Fixpoint
		}
		for _, v := range fv {
			c.db.SubstituteVar(v.VarID(), types.C(c.finiteValue(v)))
		}
		if c.steps >= c.cfg.MaxSteps {
			return StepLimit
		}
	}
}

// finiteValue picks a valuation for one finite-domain variable: an inert
// domain value outside the constants of Σ when one exists (it can trigger
// no pattern), else a random or first domain value.
func (c *Chaser) finiteValue(v types.Value) string {
	dom := c.varDom[v.VarID()]
	if inert, ok := dom.Fresh(c.sigmaConsts); ok {
		return inert
	}
	vals := dom.Values()
	if c.cfg.Rng != nil {
		return vals[c.cfg.Rng.Intn(len(vals))]
	}
	return vals[0]
}

// runCore chases FD/IND operations to a variable-level fixpoint.
func (c *Chaser) runCore() Result {
	for {
		if c.stop() {
			return Cancelled
		}
		if res, ok := c.fdFixpoint(); !ok {
			return res
		}
		applied, res := c.applyOneIND()
		if res != Fixpoint {
			return res
		}
		if !applied {
			return Fixpoint
		}
		if c.steps >= c.cfg.MaxSteps {
			return StepLimit
		}
	}
}

// version is an instance.Version pair. The zero pair is that of an
// instance nothing was ever inserted into, on which an FD pass changes
// nothing as well, so it needs no sentinel.
type version struct {
	nextSeq int64
	n       int
}

// fdFixpoint applies FD operations until none changes the template.
// Returns (Undefined, false) on conflict.
//
// A pass of φ is skipped while φ's relation instance still has the
// Version it had after φ's last pass that changed nothing: applyFD is a
// pure function of that instance, so the skipped pass would change
// nothing again. The visiting order is still drawn through c.order on
// every sweep, so the chase consumes its random stream exactly as if
// every pass ran, and seeded runs reach the same template.
func (c *Chaser) fdFixpoint() (Result, bool) {
	for changed := true; changed; {
		changed = false
		for _, phi := range c.order(len(c.cfds)) {
			if c.stop() {
				return Cancelled, false
			}
			c.fdVisits++
			nextSeq, n := c.db.Instance(c.cfds[phi].Rel).Version()
			if c.fdClean[phi] == (version{nextSeq, n}) {
				continue
			}
			c.fdPasses++
			res, did := c.applyFD(c.cfds[phi])
			if res != Fixpoint {
				return res, false
			}
			if !did {
				c.fdClean[phi] = version{nextSeq, n}
				continue
			}
			changed = true
			c.steps++
			if c.steps >= c.cfg.MaxSteps {
				return StepLimit, false
			}
		}
	}
	return Fixpoint, true
}

// order returns 0..n-1, shuffled when an rng is configured.
func (c *Chaser) order(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if c.cfg.Rng != nil {
		c.cfg.Rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	return idx
}

// applyFD applies one FD(φ) pass: tuples matching the LHS pattern are
// grouped by their X projection (hash join rather than the quadratic
// nested loop), and within each group the A column is equated per the two
// cases of Section 5.1. All forced substitutions of a pass are applied
// together; the fixpoint loop in fdFixpoint re-checks afterwards, so batch
// application is equivalent to single steps (chase confluence) but far
// cheaper on the large templates of the Section 6 experiments. Returns
// whether a change was made.
func (c *Chaser) applyFD(phi *cfd.CFD) (Result, bool) {
	in := c.db.Instance(phi.Rel)
	rel := in.Relation()
	xi := make([]int, len(phi.X))
	for i, a := range phi.X {
		j, _ := rel.Index(a)
		xi[i] = j
	}
	ai, _ := rel.Index(phi.Y[0])
	row := phi.Rows[0]
	tpA := row.RHS[0]

	// Group the A values of LHS-matching tuples by X projection.
	groups := map[string][]types.Value{}
	var order []string
	for _, t := range in.Tuples() {
		x := t.Project(xi)
		if !row.LHS.Matches(x) {
			continue
		}
		k := projKey(x)
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], t[ai])
	}

	type sub struct {
		id  int64
		val types.Value
	}
	var subs []sub
	for _, k := range order {
		if c.stop() {
			return Cancelled, false
		}
		vals := groups[k]
		// Determine the group's target value: the constant tp[A] in case
		// (ii); in case (i) the largest value present (constants dominate
		// variables, larger variables dominate smaller ones).
		var target types.Value
		haveTarget := false
		if tpA.IsConst() {
			target = types.C(tpA.Const())
			haveTarget = true
		}
		for _, v := range vals {
			if v.IsConst() {
				if haveTarget && target.IsConst() && !v.Eq(target) {
					return Undefined, false // two distinct constants forced
				}
				if !haveTarget || !target.IsConst() {
					target = v
					haveTarget = true
				}
			} else if !haveTarget || v.IsVar() && target.IsVar() && target.Less(v) {
				target = v
				haveTarget = true
			}
		}
		for _, v := range vals {
			if v.IsVar() && !v.Eq(target) {
				subs = append(subs, sub{v.VarID(), target})
			}
		}
	}
	if len(subs) == 0 {
		return Fixpoint, false
	}
	changed := false
	for _, s := range subs {
		if c.db.SubstituteVar(s.id, s.val) {
			changed = true
		}
	}
	return Fixpoint, changed
}

// projKey encodes a projection for hashing, keeping constants and
// variables in disjoint namespaces.
func projKey(vals []types.Value) string {
	var b []byte
	for _, v := range vals {
		if v.IsVar() {
			b = append(b, 1)
			b = appendInt(b, v.VarID())
		} else {
			b = append(b, 2)
			b = append(b, v.Str()...)
		}
		b = append(b, 0)
	}
	return string(b)
}

func appendInt(b []byte, n int64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(n>>(8*i)))
	}
	return b
}

// applyOneIND finds one triggered, unsatisfied CIND and adds the required
// tuple. Returns whether an op was applied.
func (c *Chaser) applyOneIND() (bool, Result) {
	for _, pi := range c.order(len(c.cinds)) {
		if c.stop() {
			return false, Cancelled
		}
		psi := c.cinds[pi]
		ta, ok := c.findTrigger(psi)
		if !ok {
			continue
		}
		res := c.addINDTuple(psi, ta)
		c.steps++
		return true, res
	}
	return false, Fixpoint
}

// findTrigger returns a tuple of the LHS relation that matches psi's Xp
// pattern exactly (constants equal) and has no matching RHS tuple. The RHS
// side is indexed by Y projection (hash anti-join) so each call is linear
// in the two instance sizes.
func (c *Chaser) findTrigger(psi *cind.CIND) (instance.Tuple, bool) {
	i1 := c.db.Instance(psi.LHSRel)
	i2 := c.db.Instance(psi.RHSRel)
	r1, r2 := i1.Relation(), i2.Relation()
	xpIdx := idxOf(r1, psi.Xp)
	xIdx := idxOf(r1, psi.X)
	yIdx := idxOf(r2, psi.Y)
	ypIdx := idxOf(r2, psi.Yp)
	xpPat := psi.XpPattern()
	ypPat := psi.YpPattern()

	rhsKeys := map[string]bool{}
	for _, tb := range i2.Tuples() {
		if !constsMatch(tb.Project(ypIdx), ypPat) {
			continue
		}
		rhsKeys[projKey(tb.Project(yIdx))] = true
	}

	tuples := i1.Tuples()
	for _, k := range c.order(len(tuples)) {
		ta := tuples[k]
		// Exact equality with the Xp constants (variables do not trigger).
		if !constsMatch(ta.Project(xpIdx), xpPat) {
			continue
		}
		if rhsKeys[projKey(ta.Project(xIdx))] {
			continue
		}
		return ta, true
	}
	return nil, false
}

// addINDTuple performs IND(ψ) for the triggering tuple ta: insert tb with
// tb[Y] = ta[X], tb[Yp] = tp[Yp], and pool variables (or finite-domain
// constants under chaseI) elsewhere.
func (c *Chaser) addINDTuple(psi *cind.CIND, ta instance.Tuple) Result {
	i1 := c.db.Instance(psi.LHSRel)
	i2 := c.db.Instance(psi.RHSRel)
	r1, r2 := i1.Relation(), i2.Relation()
	xIdx := idxOf(r1, psi.X)
	want := ta.Project(xIdx)

	tb := make(instance.Tuple, r2.Arity())
	filled := make([]bool, r2.Arity())
	for i, a := range psi.Y {
		j, _ := r2.Index(a)
		tb[j] = want[i]
		filled[j] = true
	}
	ypPat := psi.YpPattern()
	for i, a := range psi.Yp {
		j, _ := r2.Index(a)
		tb[j] = types.C(ypPat[i].Const())
		filled[j] = true
	}
	for j, a := range r2.Attrs() {
		if filled[j] {
			continue
		}
		tb[j] = c.freshVar(psi.RHSRel, a.Name, a.Dom)
	}
	i2.Insert(tb)
	if i2.Len() > c.cfg.TableCap {
		return CapExceeded
	}
	return Fixpoint
}

// constsMatch reports exact equality between tuple fields and pattern
// constants: every pattern symbol is a constant (normal form) and must
// equal the corresponding field, which must itself be a constant.
func constsMatch(vals []types.Value, pat pattern.Tuple) bool {
	for i, s := range pat {
		if !vals[i].IsConst() || vals[i].Str() != s.Const() {
			return false
		}
	}
	return true
}

func idxOf(r *schema.Relation, attrs []string) []int {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		j, ok := r.Index(a)
		if !ok {
			panic("chase: relation " + r.Name() + " lost attribute " + a)
		}
		out[i] = j
	}
	return out
}
