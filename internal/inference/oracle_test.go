package inference

// The engine as it was before facts were pre-keyed, kept verbatim apart
// from renames as a test-only oracle: the saturation that built,
// canonicalized and keyed every candidate with cind.New before
// deduplicating it, and the map-based Subsumes.
// TestFactSequenceMatchesOracle requires the pre-keyed engine to admit
// the same facts, in the same order, with the same CINDs, rules, premises
// and notes.

import (
	"fmt"
	"sort"
	"strings"

	cind "cind/internal/core"
	"cind/internal/pattern"
	"cind/internal/schema"
)

// oracleFact is an engine node: a canonical CIND plus provenance.
type oracleFact struct {
	psi      *cind.CIND
	rule     string
	premises []int // indices into the fact list
	note     string
}

// oracleSaturation is the oracle engine state of one Derive call.
type oracleSaturation struct {
	sch   *schema.Schema
	opts  Options
	facts []oracleFact
	index map[string]int // canonKey -> fact index

	// goals are the goal's canonical normal-form components; goalDone[i]
	// is the subsuming fact's index, -1 while open. Facts below checked
	// have been tried against every open goal.
	goals    []*cind.CIND
	goalDone []int
	checked  int

	// g7 and g8 are the CIND7/CIND8 merge groups over the facts below
	// merged, kept across rounds.
	g7, g8 map[string]*oracleGroup
	merged int
}

// oracleGroup collects facts identical up to the constant on the finite
// Xp attribute attrA (CIND7), or up to matching constants on attrA and
// the Yp attribute attrB (CIND8).
type oracleGroup struct {
	attrA, attrB string
	members      []int
	values       map[string]bool
}

// oracleSaturate seeds the fact set and runs semi-naive rounds until every goal
// component is subsumed, a round adds nothing, or a bound trips. It is
// Derive without the proof extraction; tests inspect its facts.
func oracleSaturate(sch *schema.Schema, sigma []*cind.CIND, goal *cind.CIND, opts Options) *oracleSaturation {
	s := &oracleSaturation{
		sch:   sch,
		opts:  opts.withDefaults(),
		index: map[string]int{},
		g7:    map[string]*oracleGroup{},
		g8:    map[string]*oracleGroup{},
	}
	for _, psi := range cind.NormalizeAll(sigma) {
		s.add(oracleFact{psi: canonicalize(sch, psi), rule: "Σ"})
	}
	// CIND1: identity over all attributes of every relation mentioned.
	for _, rel := range sch.Relations() {
		id, err := Reflexivity(sch, "refl_"+rel.Name(), rel.Name(), rel.AttrNames())
		if err == nil {
			s.add(oracleFact{psi: canonicalize(sch, id), rule: "CIND1"})
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
				if comp, note, ok := oracleCompose(sch, s.facts[i].psi, s.facts[j].psi); ok {
					if s.add(oracleFact{psi: comp, rule: "CIND3", premises: []int{i, j}, note: note}) {
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
				if s.add(oracleFact{psi: canonicalize(sch, red), rule: "CIND6", premises: []int{i},
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
func (s *oracleSaturation) add(f oracleFact) bool {
	key := canonKey(f.psi)
	if _, ok := s.index[key]; ok {
		return false
	}
	s.facts = append(s.facts, f)
	s.index[key] = len(s.facts) - 1
	return true
}

// full reports whether the fact cap has been reached.
func (s *oracleSaturation) full() bool { return len(s.facts) >= s.opts.MaxFacts }

// checkGoals tries every open goal against the facts added since the last
// check, recording the first subsuming fact, and reports whether every
// goal is discharged.
func (s *oracleSaturation) checkGoals() bool {
	for gi, g := range s.goals {
		if s.goalDone[gi] >= 0 {
			continue
		}
		for fi := s.checked; fi < len(s.facts); fi++ {
			if oracleSubsumes(s.facts[fi].psi, g) {
				s.goalDone[gi] = fi
				break
			}
		}
	}
	s.checked = len(s.facts)
	return s.goalsMet()
}

func (s *oracleSaturation) goalsMet() bool {
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

// oracleCompose aligns first's RHS with second's LHS and applies CIND3. The
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
func oracleCompose(sch *schema.Schema, first, second *cind.CIND) (*cind.CIND, string, bool) {
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
func (s *oracleSaturation) applyMerges() bool {
	n := len(s.facts)
	gained7, gained8 := map[string]bool{}, map[string]bool{}
	join := func(groups map[string]*oracleGroup, gained map[string]bool, key, a, b string, i int, v string) {
		grp := groups[key]
		if grp == nil {
			grp = &oracleGroup{attrA: a, attrB: b, values: map[string]bool{}}
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
	fire := func(grp *oracleGroup) {
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
		if s.add(oracleFact{psi: canonicalize(s.sch, out), rule: rule, premises: grp.members}) {
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

// canonKey returns a canonical string for a normal-form CIND that is
// invariant under CIND2 permutations: relations, the set of X/Y pairs, and
// the Xp/Yp constant maps, all in sorted order. Facts in the engine are
// deduplicated by this key.
func canonKey(psi *cind.CIND) string {
	pairs := make([]string, len(psi.X))
	for i := range psi.X {
		pairs[i] = psi.X[i] + "=" + psi.Y[i]
	}
	sort.Strings(pairs)
	xp := mapEntries(xpMap(psi))
	yp := mapEntries(ypMap(psi))
	return psi.LHSRel + "[" + strings.Join(pairs, ",") + ";" + xp + "]->" +
		psi.RHSRel + "[" + yp + "]"
}

func mapEntries(m map[string]string) string {
	entries := make([]string, 0, len(m))
	for k, v := range m {
		entries = append(entries, k+":"+v)
	}
	sort.Strings(entries)
	return strings.Join(entries, ",")
}

// canonicalize rewrites a normal-form CIND with pairs sorted by (X attr,
// Y attr) and pattern lists sorted by attribute, so that structurally equal
// facts are identical. Sound by CIND2 (projection with the full index set is
// a permutation).
func canonicalize(sch *schema.Schema, psi *cind.CIND) *cind.CIND {
	type pair struct{ x, y string }
	pairs := make([]pair, len(psi.X))
	for i := range psi.X {
		pairs[i] = pair{psi.X[i], psi.Y[i]}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].x != pairs[j].x {
			return pairs[i].x < pairs[j].x
		}
		return pairs[i].y < pairs[j].y
	})
	x := make([]string, len(pairs))
	y := make([]string, len(pairs))
	for i, p := range pairs {
		x[i], y[i] = p.x, p.y
	}
	xpM, ypM := xpMap(psi), ypMap(psi)
	xp := sortedKeys(xpM)
	yp := sortedKeys(ypM)
	lhs := pattern.Wilds(len(x))
	for _, a := range xp {
		lhs = append(lhs, pattern.Sym(xpM[a]))
	}
	rhs := pattern.Wilds(len(y))
	for _, a := range yp {
		rhs = append(rhs, pattern.Sym(ypM[a]))
	}
	out, err := cind.New(sch, psi.ID, psi.LHSRel, x, xp, psi.RHSRel, y, yp,
		[]cind.Row{{LHS: lhs, RHS: rhs}})
	if err != nil {
		// psi was valid; a pure reordering cannot invalidate it.
		panic("inference: canonicalize broke validity: " + err.Error())
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// oracleSubsumes reports whether goal is derivable from psi using only the
// single-premise rules CIND2 (projection/permutation), CIND4 (instantiate),
// CIND5 (augment Xp) and CIND6 (reduce Yp). Both must be in normal form.
//
// The decision works pairwise on the embedded IND and the pattern maps:
//
//   - every X/Y pair of the goal must appear among psi's pairs (CIND2 keeps
//     it, projection drops the rest);
//   - every Xp constant of psi must appear identically in the goal (rules
//     can only strengthen the LHS pattern, never weaken it);
//   - every Yp entry (B, c) of the goal must come either from psi's Yp with
//     the same constant, or from a CIND4 instantiation of an unused psi pair
//     (A, B) — which forces (A, c) to be in the goal's Xp;
//   - every remaining goal Xp entry is provided by CIND5 (for attributes
//     not among the kept pairs) or by the instantiations above;
//   - psi's extra Yp entries are dropped by CIND6.
func oracleSubsumes(psi, goal *cind.CIND) bool {
	if !psi.IsNormal() || !goal.IsNormal() {
		return false
	}
	if psi.LHSRel != goal.LHSRel || psi.RHSRel != goal.RHSRel {
		return false
	}
	// Map goal pairs into psi pairs.
	psiPair := map[string]int{} // "x=y" -> position
	for i := range psi.X {
		psiPair[psi.X[i]+"="+psi.Y[i]] = i
	}
	usedPair := make(map[int]bool, len(psi.X))
	for i := range goal.X {
		j, ok := psiPair[goal.X[i]+"="+goal.Y[i]]
		if !ok || usedPair[j] {
			return false
		}
		usedPair[j] = true
	}
	goalXp, goalYp := xpMap(goal), ypMap(goal)
	psiXp, psiYp := xpMap(psi), ypMap(psi)

	// psi's Xp must be a sub-map of goal's Xp.
	for a, c := range psiXp {
		if goalXp[a] != c {
			return false
		}
	}
	// Resolve goal's Yp entries.
	instantiated := map[int]bool{}
	for b, c := range goalYp {
		if pc, ok := psiYp[b]; ok && pc == c {
			continue // directly from psi's Yp
		}
		// Need CIND4 on an unused pair (A, b) with goal Xp[A] == c.
		found := false
		for j := range psi.X {
			if usedPair[j] || instantiated[j] || psi.Y[j] != b {
				continue
			}
			if gc, ok := goalXp[psi.X[j]]; ok && gc == c {
				instantiated[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	// Remaining goal Xp entries must be coverable: either psi already has
	// them (checked above as sub-map), or they come from an instantiated
	// pair's X attribute, or CIND5 can add them — CIND5 requires the
	// attribute not to sit among the *kept* pairs' X attributes.
	keptX := map[string]bool{}
	for i := range goal.X {
		keptX[goal.X[i]] = true
	}
	instX := map[string]bool{}
	for j := range instantiated {
		instX[psi.X[j]] = true
	}
	for a := range goalXp {
		if _, ok := psiXp[a]; ok {
			continue
		}
		if instX[a] {
			continue // produced by the CIND4 step
		}
		if keptX[a] {
			return false // attribute already used as a main LHS attribute
		}
		// CIND5 adds it (goal validation guarantees the constant is in
		// dom(a)). Note: if a belongs to a dropped, uninstantiated psi pair,
		// projection removed it from X first, so CIND5 applies.
	}
	// Instantiated pairs put (X_j, c) into Xp — already required to be in
	// goal's Xp — and (Y_j, c) into Yp — already matched. Everything else in
	// psi's Yp is dropped by CIND6.
	return true
}
