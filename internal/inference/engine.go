package inference

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	cind "cind/internal/core"
	"cind/internal/schema"
)

// Options bounds the forward-chaining derivation search. Implication of
// CINDs is EXPTIME-complete in general (Theorem 3.4), so any practical
// engine must be bounded; within the bounds the engine is sound, and
// failure to derive is "unknown", not "not implied".
type Options struct {
	// MaxFacts caps the number of distinct derived facts (default 4000).
	MaxFacts int
	// MaxRounds caps saturation rounds (default 12).
	MaxRounds int
}

func (o Options) withDefaults() Options {
	if o.MaxFacts <= 0 {
		o.MaxFacts = 4000
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 12
	}
	return o
}

// Step is one line of a derivation, mirroring the paper's proof layout in
// Example 3.4: the derived CIND, the rule used, and the premises by index.
type Step struct {
	Result   *cind.CIND
	Rule     string
	Premises []int // indices of earlier steps; empty for members of Σ
	Note     string
}

// Proof is a derivation of a goal CIND from Σ in system I.
type Proof struct {
	Steps []Step
}

// String renders the proof in the numbered style of Example 3.4.
func (p *Proof) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		prem := ""
		if len(s.Premises) > 0 {
			parts := make([]string, len(s.Premises))
			for j, k := range s.Premises {
				parts[j] = fmt.Sprintf("(%d)", k+1)
			}
			prem = strings.Join(parts, ",") + ", "
		}
		fmt.Fprintf(&b, "(%d) %s   [%s%s]\n", i+1, s.Result, prem, s.Rule)
		if s.Note != "" {
			fmt.Fprintf(&b, "    %s\n", s.Note)
		}
	}
	return b.String()
}

// fact is an engine node: a canonical CIND with its parts and key, and its
// provenance. A fact is never modified once admitted, which is what lets a
// prepared Σ's facts be shared by concurrent Derive calls.
type fact struct {
	psi *cind.CIND
	form
	key      string
	rule     string
	premises []int // indices into the fact list
	note     string
}

// Sigma is a constraint set prepared for Derive: every member's canonical
// normal forms, taken apart and keyed, and the CIND1 reflexivity facts of
// the schema. Nothing in it changes after Prepare, so any number of Derive
// calls, concurrent ones included, share it.
type Sigma struct {
	sch     *schema.Schema
	members [][]fact // canonical normal forms of each member, in order
	refl    []fact
}

// Prepare canonicalizes sigma once, for every Derive call over it or over a
// Subset of it.
func Prepare(sch *schema.Schema, sigma []*cind.CIND) *Sigma {
	p := &Sigma{sch: sch, members: make([][]fact, len(sigma))}
	for i, psi := range sigma {
		for _, nf := range psi.NormalForm() {
			p.members[i] = append(p.members[i], seed(sch, nf, "Σ"))
		}
	}
	// CIND1: identity over all attributes of every relation mentioned.
	for _, rel := range sch.Relations() {
		id, err := Reflexivity(sch, "refl_"+rel.Name(), rel.Name(), rel.AttrNames())
		if err == nil {
			p.refl = append(p.refl, seed(sch, id, "CIND1"))
		}
	}
	return p
}

// Subset returns the prepared set of the members at positions idx, in that
// order, sharing their facts.
func (p *Sigma) Subset(idx []int) *Sigma {
	out := &Sigma{sch: p.sch, members: make([][]fact, len(idx)), refl: p.refl}
	for k, i := range idx {
		out.members[k] = p.members[i]
	}
	return out
}

// seed is the canonical fact of a normal-form CIND.
func seed(sch *schema.Schema, psi *cind.CIND, rule string) fact {
	f := fact{form: formOf(psi), rule: rule}
	c, err := build(sch, psi.ID, &f.form)
	if err != nil {
		// psi was valid; a pure reordering cannot invalidate it.
		panic("inference: canonical form broke validity: " + err.Error())
	}
	f.psi = c
	f.key = string(f.appendKey(nil, "", ""))
	return f
}

// Derive searches for a derivation of goal from sigma in the inference
// system I, using forward chaining over canonicalised normal forms:
//
//   - members of Σ (normalised) and the reflexivity instances (CIND1) seed
//     the fact set;
//   - CIND3 compositions are applied between facts whose middles align
//     modulo CIND2 permutation and CIND6 reduction;
//   - CIND6 single-attribute reductions expose merge opportunities;
//   - CIND7 and CIND8 merges fire when a finite domain is covered;
//   - the goal (normalised) is discharged by Subsumes, i.e. by a final
//     application of CIND2/4/5/6.
//
// The rounds are semi-naive: each does only the work the previous round's
// new facts make possible. It composes the pairs with at least one fact
// from the previous round, reduces only those facts, feeds the merge
// groups only the facts added since the last merge pass, and checks the
// open goals only against new facts. Every rule is a pure function of its
// premises, so a pair an earlier round already tried can only yield a
// duplicate: the derived facts, and the proofs, are those of the naive
// saturation that retries everything. Merge groups that gained a member
// fire in sorted-key order (CIND7 before CIND8), so the fact order — and
// the proof — is deterministic.
//
// Facts are pre-keyed. Each fact carries its canonical parts (sorted X=Y
// pairs, Xp and Yp entries) and key, computed once when it is admitted; a
// rule applies to the premises' parts, writes the candidate's key into a
// reused buffer and looks it up, and only a fresh key constructs the
// candidate's CIND, once and already canonical. A duplicate costs a lookup,
// and the members of sigma are canonicalized once, by Prepare, for every
// Derive over them.
//
// Derive polls ctx once per round and every few thousand composition
// attempts; a cancelled Derive reports no proof. On success it returns a
// replayable Proof. A false result means "no derivation found within the
// bounds" — callers should treat it as unknown (package implication pairs
// this with a chase-based refutation).
func Derive(ctx context.Context, sigma *Sigma, goal *cind.CIND, opts Options) (*Proof, bool) {
	s := saturate(ctx, sigma, goal, opts)
	if s.err != nil || !s.goalsMet() {
		return nil, false
	}
	return buildProof(s.facts, s.goals, s.goalDone), true
}

// pollEvery is how many composition attempts pass between context polls.
const pollEvery = 4096

// saturation is the engine state of one Derive call.
type saturation struct {
	ctx      context.Context
	err      error // ctx's error, once a poll has seen it
	attempts int   // composition attempts, counted for the polls
	sch      *schema.Schema
	opts     Options
	facts    []fact
	index    map[string]int   // key -> fact index
	byLHS    map[string][]int // LHS relation -> indices of the facts there, ascending

	// goals are the goal's canonical normal-form components; goalDone[i]
	// is the subsuming fact's index, -1 while open. Facts below checked
	// have been tried against every open goal.
	goals    []fact
	goalDone []int
	checked  int

	// g7 and g8 are the CIND7/CIND8 merge groups over the facts below
	// merged, kept across rounds; gained7 and gained8 list the groups that
	// gained a member in the current merge pass.
	g7, g8           map[string]*mergeGroup
	merged           int
	gained7, gained8 []*mergeGroup

	// cand is the candidate a rule builds and key its key. Their lists
	// are the premises' own or the scratch buffers below, reused from
	// candidate to candidate; only a fresh key copies them into a fact.
	cand         form
	key          []byte
	pairBuf      []pair
	xpBuf, ypBuf []entry
}

// mergeGroup collects facts identical up to the constant on the finite
// Xp attribute attrA (CIND7), or up to matching constants on attrA and
// the Yp attribute attrB (CIND8). key is its masked canonical key.
type mergeGroup struct {
	key          string
	attrA, attrB string
	members      []int
	values       map[string]bool
	gained       bool // gained a member in the current merge pass
}

// saturate seeds the fact set and runs semi-naive rounds until every goal
// component is subsumed, a round adds nothing, a bound trips or ctx is
// cancelled. It is Derive without the proof extraction; tests inspect its
// facts.
func saturate(ctx context.Context, sigma *Sigma, goal *cind.CIND, opts Options) *saturation {
	s := &saturation{
		ctx:   ctx,
		sch:   sigma.sch,
		opts:  opts.withDefaults(),
		index: map[string]int{},
		byLHS: map[string][]int{},
		g7:    map[string]*mergeGroup{},
		g8:    map[string]*mergeGroup{},
	}
	for _, m := range sigma.members {
		for _, f := range m {
			s.admit(f)
		}
	}
	for _, f := range sigma.refl {
		s.admit(f)
	}
	for _, g := range goal.NormalForm() {
		s.goals = append(s.goals, seed(s.sch, g, ""))
		s.goalDone = append(s.goalDone, -1)
	}
	if s.checkGoals() {
		return s
	}

	prev := 0 // len(facts) when the previous round started
	for round := 0; round < s.opts.MaxRounds && !s.full(); round++ {
		if s.err = ctx.Err(); s.err != nil {
			return s
		}
		n := len(s.facts)
		grew := s.composeRound(prev, n)
		if s.err != nil {
			return s
		}
		if s.reduceRound(prev, n) {
			grew = true
		}
		if s.applyMerges() {
			grew = true
		}
		prev = n

		if s.checkGoals() || !grew {
			break
		}
	}
	return s
}

// admit appends f unless a fact with the same key exists.
func (s *saturation) admit(f fact) {
	if _, ok := s.index[f.key]; !ok {
		s.push(f)
	}
}

func (s *saturation) push(f fact) {
	s.index[f.key] = len(s.facts)
	s.byLHS[f.lhs] = append(s.byLHS[f.lhs], len(s.facts))
	s.facts = append(s.facts, f)
}

// fresh writes the candidate's key into s.key and reports whether no fact
// has it yet.
func (s *saturation) fresh() bool {
	s.key = s.cand.appendKey(s.key[:0], "", "")
	_, dup := s.index[string(s.key)]
	return !dup
}

// admitFresh builds the CIND of the candidate fresh just accepted and
// appends it as a fact. It reports false, admitting nothing, when cind.New
// rejects the candidate.
func (s *saturation) admitFresh(id, rule string, premises []int, note string) bool {
	psi, err := build(s.sch, id, &s.cand)
	if err != nil {
		return false
	}
	c := s.cand
	s.push(fact{
		psi: psi,
		form: form{lhs: c.lhs, rhs: c.rhs,
			pairs: slices.Clone(c.pairs), xp: slices.Clone(c.xp), yp: slices.Clone(c.yp)},
		key: string(s.key), rule: rule, premises: premises, note: note,
	})
	return true
}

// full reports whether the fact cap has been reached.
func (s *saturation) full() bool { return len(s.facts) >= s.opts.MaxFacts }

// checkGoals tries every open goal against the facts added since the last
// check, recording the first subsuming fact, and reports whether every
// goal is discharged.
func (s *saturation) checkGoals() bool {
	for gi := range s.goals {
		if s.goalDone[gi] >= 0 {
			continue
		}
		for fi := s.checked; fi < len(s.facts); fi++ {
			if subsumes(&s.facts[fi].form, &s.goals[gi].form) {
				s.goalDone[gi] = fi
				break
			}
		}
	}
	s.checked = len(s.facts)
	return s.goalsMet()
}

func (s *saturation) goalsMet() bool {
	for _, fi := range s.goalDone {
		if fi < 0 {
			return false
		}
	}
	return true
}

// composeRound applies CIND3, with implicit CIND2/CIND4/CIND6 alignment, to
// the pairs (i, j) with max(i, j) >= prev, in (i, j) order. Only a fact
// starting where facts[i] ends can follow it, so j runs over byLHS alone.
// It polls ctx every pollEvery attempts and reports whether a fact was
// added.
func (s *saturation) composeRound(prev, n int) bool {
	grew := false
	for i := 0; i < n && !s.full(); i++ {
		from := 0
		if i < prev {
			from = prev
		}
		js := s.byLHS[s.facts[i].rhs]
		for k := sort.SearchInts(js, from); k < len(js) && js[k] < n && !s.full(); k++ {
			if s.attempts++; s.attempts%pollEvery == 0 {
				if s.err = s.ctx.Err(); s.err != nil {
					return grew
				}
			}
			j := js[k]
			if s.compose(i, j) && s.fresh() &&
				s.admitFresh("comp", "CIND3", []int{i, j},
					"align "+s.facts[i].psi.ID+"->"+s.facts[j].psi.ID+" via CIND2/CIND4/CIND6") {
				grew = true
			}
		}
	}
	return grew
}

// compose builds in s.cand the composition of facts i and j, whose middle
// relation agrees: it aligns i's RHS with j's LHS and applies CIND3. The
// alignment may use every single-premise rule:
//
//   - j's X attributes found among i's Y attributes become composed pairs
//     (CIND2 projects i onto exactly those pairs);
//   - a j X attribute found in i's Yp with constant c is CIND4-instantiated
//     on j with that constant, contributing (Y_k, c) to the composed Yp
//     instead of a pair;
//   - j's Xp constants must appear in i's Yp (extra Yp entries of i are
//     dropped by CIND6).
//
// It reports whether the two align; a pair that does not allocates nothing.
func (s *saturation) compose(i, j int) bool {
	first, second := &s.facts[i], &s.facts[j]
	// second's Xp must be a sub-map of first's Yp.
	for _, e := range second.xp {
		if c, _ := lookup(first.yp, e.attr); c != e.c {
			return false
		}
	}
	pairs, yp := s.pairBuf[:0], append(s.ypBuf[:0], second.yp...)
	for _, p := range second.pairs {
		if x, ok := xOf(first.pairs, p.x); ok {
			pairs = append(pairs, pair{x, p.y})
		} else if c, ok := lookup(first.yp, p.x); ok {
			// CIND4 on second: the pair (p.x, p.y) becomes pattern entries
			// with constant c on both sides.
			yp = append(yp, entry{p.y, c})
		} else {
			return false
		}
	}
	sortPairs(pairs)
	sortEntries(yp)
	s.pairBuf, s.ypBuf = pairs, yp
	s.cand = form{lhs: first.lhs, rhs: second.rhs, pairs: pairs, xp: first.xp, yp: yp}
	return true
}

// xOf returns the X attribute paired with the Y attribute y among ps.
func xOf(ps []pair, y string) (string, bool) {
	for _, p := range ps {
		if p.y == y {
			return p.x, true
		}
	}
	return "", false
}

// reduceRound applies CIND6 single-attribute reductions to the facts in
// [prev, n) and reports whether a fact was added.
func (s *saturation) reduceRound(prev, n int) bool {
	grew := false
	for i := prev; i < n && !s.full(); i++ {
		f := s.facts[i]
		for _, drop := range f.psi.Yp {
			s.ypBuf = without(s.ypBuf[:0], f.yp, drop)
			s.cand = form{lhs: f.lhs, rhs: f.rhs, pairs: f.pairs, xp: f.xp, yp: s.ypBuf}
			if s.fresh() && s.admitFresh(f.psi.ID+"-"+drop, "CIND6", []int{i}, "drop "+drop+" from Yp") {
				grew = true
			}
		}
	}
	return grew
}

// without appends the entries of es other than attr's to dst.
func without(dst, es []entry, attr string) []entry {
	for _, e := range es {
		if e.attr != attr {
			dst = append(dst, e)
		}
	}
	return dst
}

// applyMerges feeds the facts added since the last merge pass into the
// CIND7 and CIND8 groups — facts identical up to the constant on one
// finite-domain Xp attribute (CIND7), or up to matching constants on one
// Xp and one Yp attribute (CIND8) — and fires, in sorted-key order, every
// group that gained a member and whose constants cover the attribute's
// domain. A group that gained nothing either fired already or is still
// uncovered, so firing it again could only re-derive a known fact.
// Returns whether a new fact was added.
func (s *saturation) applyMerges() bool {
	n := len(s.facts)
	for i := s.merged; i < n; i++ {
		f := &s.facts[i]
		rel, ok := s.sch.Relation(f.lhs)
		if !ok {
			continue
		}
		for _, a := range f.xp {
			if !rel.Domain(a.attr).IsFinite() {
				continue
			}
			s.gained7 = s.join(s.g7, s.gained7, i, a, "")
			// CIND8: pair with every Yp attribute holding the same constant.
			for _, b := range f.yp {
				if b.c == a.c {
					s.gained8 = s.join(s.g8, s.gained8, i, a, b.attr)
				}
			}
		}
	}
	s.merged = n

	grew := false
	for _, gained := range [][]*mergeGroup{s.gained7, s.gained8} {
		sort.Slice(gained, func(i, j int) bool { return gained[i].key < gained[j].key })
		for _, grp := range gained {
			grp.gained = false
			if s.fire(grp) {
				grew = true
			}
		}
	}
	s.gained7, s.gained8 = s.gained7[:0], s.gained8[:0]
	return grew
}

// join adds fact i to the group of its Xp entry a (and Yp attribute attrB
// for CIND8), keyed a|[attrB|]key-without-them, and appends the group to
// gained the first time it gains a member in this pass.
func (s *saturation) join(groups map[string]*mergeGroup, gained []*mergeGroup, i int, a entry, attrB string) []*mergeGroup {
	s.key = append(append(s.key[:0], a.attr...), '|')
	if attrB != "" {
		s.key = append(append(s.key, attrB...), '|')
	}
	s.key = s.facts[i].appendKey(s.key, a.attr, attrB)
	grp := groups[string(s.key)]
	if grp == nil {
		grp = &mergeGroup{key: string(s.key), attrA: a.attr, attrB: attrB, values: map[string]bool{}}
		groups[grp.key] = grp
	}
	grp.members = append(grp.members, i)
	grp.values[a.c] = true
	if !grp.gained {
		grp.gained = true
		gained = append(gained, grp)
	}
	return gained
}

// fire merges grp's members if their constants cover dom(attrA): CIND7
// drops attrA from Xp, CIND8 restores the pair (attrA, attrB). It reports
// whether the merged fact was new.
func (s *saturation) fire(grp *mergeGroup) bool {
	if s.full() {
		return false
	}
	base := s.facts[grp.members[0]]
	rel, _ := s.sch.Relation(base.lhs)
	for _, v := range rel.Domain(grp.attrA).Values() {
		if !grp.values[v] {
			return false // domain not covered
		}
	}
	s.xpBuf = without(s.xpBuf[:0], base.xp, grp.attrA)
	s.cand = form{lhs: base.lhs, rhs: base.rhs, pairs: base.pairs, xp: s.xpBuf, yp: base.yp}
	id, rule := "merge7", "CIND7"
	if grp.attrB != "" {
		id, rule = "merge8", "CIND8"
		s.pairBuf = append(append(s.pairBuf[:0], base.pairs...), pair{grp.attrA, grp.attrB})
		sortPairs(s.pairBuf)
		s.ypBuf = without(s.ypBuf[:0], base.yp, grp.attrB)
		s.cand.pairs, s.cand.yp = s.pairBuf, s.ypBuf
	}
	if !s.fresh() {
		return false
	}
	// The group key makes the members agree beyond attrA (and attrB); check
	// it on the CINDs as MergeFinite and MergeRestore do.
	for _, m := range grp.members[1:] {
		psi := s.facts[m].psi
		if grp.attrB == "" && !equalModuloXpAttr(base.psi, psi, grp.attrA) ||
			grp.attrB != "" && !equalModuloXpYpAttrs(base.psi, psi, grp.attrA, grp.attrB) {
			return false
		}
	}
	return s.admitFresh(id, rule, slices.Clone(grp.members), "")
}

// buildProof extracts the sub-derivation reaching every goal component and
// renumbers it as a Proof, appending one final subsumption step per goal.
func buildProof(facts []fact, goals []fact, goalDone []int) *Proof {
	needed := map[int]bool{}
	var mark func(i int)
	mark = func(i int) {
		if needed[i] {
			return
		}
		needed[i] = true
		for _, p := range facts[i].premises {
			mark(p)
		}
	}
	for _, fi := range goalDone {
		mark(fi)
	}
	order := make([]int, 0, len(needed))
	for i := range facts {
		if needed[i] {
			order = append(order, i)
		}
	}
	sort.Ints(order)
	renum := map[int]int{}
	proof := &Proof{}
	for newIdx, oldIdx := range order {
		renum[oldIdx] = newIdx
		f := facts[oldIdx]
		prem := make([]int, len(f.premises))
		for k, p := range f.premises {
			prem[k] = renum[p]
		}
		proof.Steps = append(proof.Steps, Step{
			Result: f.psi, Rule: f.rule, Premises: prem, Note: f.note,
		})
	}
	for gi, g := range goals {
		proof.Steps = append(proof.Steps, Step{
			Result:   g.psi,
			Rule:     "CIND2/4/5/6",
			Premises: []int{renum[goalDone[gi]]},
			Note:     "goal discharged by subsumption",
		})
	}
	return proof
}
