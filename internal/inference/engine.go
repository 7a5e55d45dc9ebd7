package inference

import (
	"fmt"
	"sort"
	"strings"

	cind "cind/internal/core"
	"cind/internal/pattern"
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

// fact is an engine node: a canonical CIND plus provenance.
type fact struct {
	psi      *cind.CIND
	rule     string
	premises []int // indices into the fact list
	note     string
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
// On success it returns a replayable Proof. A false result means "no
// derivation found within the bounds" — callers should treat it as unknown
// (package implication pairs this with a chase-based refutation).
func Derive(sch *schema.Schema, sigma []*cind.CIND, goal *cind.CIND, opts Options) (*Proof, bool) {
	s := saturate(sch, sigma, goal, opts)
	if !s.goalsMet() {
		return nil, false
	}
	return buildProof(s.facts, s.goals, s.goalDone), true
}

// saturation is the engine state of one Derive call.
type saturation struct {
	sch   *schema.Schema
	opts  Options
	facts []fact
	index map[string]int // canonKey -> fact index

	// goals are the goal's canonical normal-form components; goalDone[i]
	// is the subsuming fact's index, -1 while open. Facts below checked
	// have been tried against every open goal.
	goals    []*cind.CIND
	goalDone []int
	checked  int

	// g7 and g8 are the CIND7/CIND8 merge groups over the facts below
	// merged, kept across rounds.
	g7, g8 map[string]*mergeGroup
	merged int
}

// mergeGroup collects facts identical up to the constant on the finite
// Xp attribute attrA (CIND7), or up to matching constants on attrA and
// the Yp attribute attrB (CIND8).
type mergeGroup struct {
	attrA, attrB string
	members      []int
	values       map[string]bool
}

// saturate seeds the fact set and runs semi-naive rounds until every goal
// component is subsumed, a round adds nothing, or a bound trips. It is
// Derive without the proof extraction; tests inspect its facts.
func saturate(sch *schema.Schema, sigma []*cind.CIND, goal *cind.CIND, opts Options) *saturation {
	s := &saturation{
		sch:   sch,
		opts:  opts.withDefaults(),
		index: map[string]int{},
		g7:    map[string]*mergeGroup{},
		g8:    map[string]*mergeGroup{},
	}
	for _, psi := range cind.NormalizeAll(sigma) {
		s.add(fact{psi: canonicalize(sch, psi), rule: "Σ"})
	}
	// CIND1: identity over all attributes of every relation mentioned.
	for _, rel := range sch.Relations() {
		id, err := Reflexivity(sch, "refl_"+rel.Name(), rel.Name(), rel.AttrNames())
		if err == nil {
			s.add(fact{psi: canonicalize(sch, id), rule: "CIND1"})
		}
	}
	for _, g := range cind.NormalizeAll([]*cind.CIND{goal}) {
		s.goals = append(s.goals, canonicalize(sch, g))
		s.goalDone = append(s.goalDone, -1)
	}
	if s.checkGoals() {
		return s
	}

	prev := 0 // len(facts) when the previous round started
	for round := 0; round < s.opts.MaxRounds && !s.full(); round++ {
		n := len(s.facts)
		grew := false

		// CIND3 compositions (with implicit CIND2/CIND6 alignment) over the
		// pairs with max(i, j) >= prev, in (i, j) order.
		for i := 0; i < n && !s.full(); i++ {
			j := 0
			if i < prev {
				j = prev
			}
			for ; j < n && !s.full(); j++ {
				if comp, note, ok := compose(sch, s.facts[i].psi, s.facts[j].psi); ok {
					if s.add(fact{psi: comp, rule: "CIND3", premises: []int{i, j}, note: note}) {
						grew = true
					}
				}
			}
		}
		// CIND6 single-attribute reductions of the previous round's facts.
		for i := prev; i < n && !s.full(); i++ {
			psi := s.facts[i].psi
			for _, drop := range psi.Yp {
				red, err := Reduce(sch, psi.ID+"-"+drop, psi, removeFrom(psi.Yp, drop))
				if err != nil {
					continue
				}
				if s.add(fact{psi: canonicalize(sch, red), rule: "CIND6", premises: []int{i},
					note: "drop " + drop + " from Yp"}) {
					grew = true
				}
			}
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

// add appends f unless a fact with the same canonical key exists, and
// reports whether it was fresh.
func (s *saturation) add(f fact) bool {
	key := canonKey(f.psi)
	if _, ok := s.index[key]; ok {
		return false
	}
	s.facts = append(s.facts, f)
	s.index[key] = len(s.facts) - 1
	return true
}

// full reports whether the fact cap has been reached.
func (s *saturation) full() bool { return len(s.facts) >= s.opts.MaxFacts }

// checkGoals tries every open goal against the facts added since the last
// check, recording the first subsuming fact, and reports whether every
// goal is discharged.
func (s *saturation) checkGoals() bool {
	for gi, g := range s.goals {
		if s.goalDone[gi] >= 0 {
			continue
		}
		for fi := s.checked; fi < len(s.facts); fi++ {
			if Subsumes(s.facts[fi].psi, g) {
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

func removeFrom(l []string, drop string) []string {
	var out []string
	for _, a := range l {
		if a != drop {
			out = append(out, a)
		}
	}
	return out
}

// compose aligns first's RHS with second's LHS and applies CIND3. The
// alignment may use every single-premise rule:
//
//   - second's X attributes found among first's Y attributes become composed
//     pairs (CIND2 projects first onto exactly those pairs);
//   - a second X attribute found in first's Yp with constant c is CIND4-
//     instantiated on second with that constant, contributing (Y_k, c) to
//     the composed Yp instead of a pair;
//   - second's Xp constants must appear in first's Yp (extra Yp entries of
//     first are dropped by CIND6).
//
// Returns the composed canonical CIND and a description of the alignment.
func compose(sch *schema.Schema, first, second *cind.CIND) (*cind.CIND, string, bool) {
	if first.RHSRel != second.LHSRel {
		return nil, "", false
	}
	posInY := map[string]int{}
	for i, a := range first.Y {
		posInY[a] = i
	}
	fYp := ypMap(first)

	var x, y []string
	ypM := ypMap(second)
	for k, a := range second.X {
		if j, ok := posInY[a]; ok {
			x = append(x, first.X[j])
			y = append(y, second.Y[k])
			continue
		}
		if c, ok := fYp[a]; ok {
			// CIND4 on second: the pair (a, second.Y[k]) becomes pattern
			// entries with constant c on both sides.
			ypM[second.Y[k]] = c
			continue
		}
		return nil, "", false
	}
	// second's Xp must be a sub-map of first's Yp.
	for a, c := range xpMap(second) {
		if fYp[a] != c {
			return nil, "", false
		}
	}
	xpM := xpMap(first)
	xp := sortedKeys(xpM)
	yp := sortedKeys(ypM)
	rows := []cind.Row{{
		LHS: wildsThenConsts(len(x), xp, xpM),
		RHS: wildsThenConsts(len(y), yp, ypM),
	}}
	out, err := cind.New(sch, "comp", first.LHSRel, x, xp, second.RHSRel, y, yp, rows)
	if err != nil {
		return nil, "", false
	}
	note := fmt.Sprintf("align %s->%s via CIND2/CIND4/CIND6", first.ID, second.ID)
	return canonicalize(sch, out), note, true
}

// wildsThenConsts builds a pattern tuple of nWild wildcards followed by the
// constants of m in the order of attrs.
func wildsThenConsts(nWild int, attrs []string, m map[string]string) pattern.Tuple {
	out := pattern.Wilds(nWild)
	for _, a := range attrs {
		out = append(out, pattern.Sym(m[a]))
	}
	return out
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
	gained7, gained8 := map[string]bool{}, map[string]bool{}
	join := func(groups map[string]*mergeGroup, gained map[string]bool, key, a, b string, i int, v string) {
		grp := groups[key]
		if grp == nil {
			grp = &mergeGroup{attrA: a, attrB: b, values: map[string]bool{}}
			groups[key] = grp
		}
		grp.members = append(grp.members, i)
		grp.values[v] = true
		gained[key] = true
	}
	for i := s.merged; i < n; i++ {
		psi := s.facts[i].psi
		rel, ok := s.sch.Relation(psi.LHSRel)
		if !ok {
			continue
		}
		xm, ym := xpMap(psi), ypMap(psi)
		for _, a := range psi.Xp {
			if !rel.Domain(a).IsFinite() {
				continue
			}
			join(s.g7, gained7, a+"|"+keyWithout(psi, a, ""), a, "", i, xm[a])
			// CIND8: pair with every Yp attribute holding the same constant.
			for _, b := range psi.Yp {
				if ym[b] == xm[a] {
					join(s.g8, gained8, a+"|"+b+"|"+keyWithout(psi, a, b), a, b, i, xm[a])
				}
			}
		}
	}
	s.merged = n

	grew := false
	fire := func(grp *mergeGroup) {
		if s.full() {
			return
		}
		rel, _ := s.sch.Relation(s.facts[grp.members[0]].psi.LHSRel)
		for _, v := range rel.Domain(grp.attrA).Values() {
			if !grp.values[v] {
				return // domain not covered
			}
		}
		members := make([]*cind.CIND, len(grp.members))
		for k, i := range grp.members {
			members[k] = s.facts[i].psi
		}
		var out *cind.CIND
		var err error
		var rule string
		if grp.attrB != "" {
			rule = "CIND8"
			out, err = MergeRestore(s.sch, "merge8", members, grp.attrA, grp.attrB)
		} else {
			rule = "CIND7"
			out, err = MergeFinite(s.sch, "merge7", members, grp.attrA)
		}
		if err != nil {
			return
		}
		if s.add(fact{psi: canonicalize(s.sch, out), rule: rule, premises: grp.members}) {
			grew = true
		}
	}
	for _, key := range sortedSet(gained7) {
		fire(s.g7[key])
	}
	for _, key := range sortedSet(gained8) {
		fire(s.g8[key])
	}
	return grew
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// keyWithout is canonKey with the Xp entry for attrA (and, when attrB is
// nonempty, the Yp entry for attrB) masked out — the grouping key for the
// CIND7/CIND8 merges.
func keyWithout(psi *cind.CIND, attrA, attrB string) string {
	pairs := make([]string, len(psi.X))
	for i := range psi.X {
		pairs[i] = psi.X[i] + "=" + psi.Y[i]
	}
	sort.Strings(pairs)
	xm := xpMap(psi)
	delete(xm, attrA)
	ym := ypMap(psi)
	if attrB != "" {
		delete(ym, attrB)
	}
	return psi.LHSRel + "[" + strings.Join(pairs, ",") + ";" + mapEntries(xm) + "]->" +
		psi.RHSRel + "[" + mapEntries(ym) + "]"
}

// buildProof extracts the sub-derivation reaching every goal component and
// renumbers it as a Proof, appending one final subsumption step per goal.
func buildProof(facts []fact, goals []*cind.CIND, goalDone []int) *Proof {
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
			Result:   g,
			Rule:     "CIND2/4/5/6",
			Premises: []int{renum[goalDone[gi]]},
			Note:     "goal discharged by subsumption",
		})
	}
	return proof
}
