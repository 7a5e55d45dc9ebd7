package detect

import (
	"sort"
	"strconv"

	"cind/internal/cfd"
	"cind/internal/instance"
	"cind/internal/types"
)

// groupKey builds an injective detection-group key from a relation name
// and its resolved projection columns. Keying on column indices rather
// than joined attribute names avoids separator ambiguity (the digit/comma
// alphabet of the index list cannot collide with anything a name
// contributes).
func groupKey(rel string, cols []int) string {
	b := append([]byte(rel), 0)
	for _, c := range cols {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return string(b)
}

// cfdGroup batches every CFD over the same (relation, X attribute list):
// one shared X-projection index serves all tableau rows of all members.
type cfdGroup struct {
	rel   string
	xCols []int
	m     []cfdMember
}

// cfdMember is one CFD of a group with its patterns compiled to codes.
type cfdMember struct {
	c     *cfd.CFD
	idx   int // position in the Run input, for the deterministic merge
	yCols []int
	rows  []cfdRow
}

type cfdRow struct {
	lhs, rhs []patSym
}

// planCFDs groups the input CFDs and compiles their patterns. Grouping is
// by X attribute *set*: the shared index uses the columns in sorted order
// and each member's LHS patterns are permuted to match, so CFDs whose X
// lists are permutations of each other still share one index (the
// X-partition of the instance is order-insensitive; only the pattern
// alignment is not). Group order follows first appearance, member order
// input order.
func planCFDs(db *instance.Database, cfds []*cfd.CFD, it *types.Interner) []*cfdGroup {
	byKey := map[string]*cfdGroup{}
	var groups []*cfdGroup
	for i, c := range cfds {
		rel := db.Instance(c.Rel).Relation()
		xCols := rel.Cols(c.X)
		perm := make([]int, len(xCols)) // sorted position -> original X position
		for p := range perm {
			perm[p] = p
		}
		sort.Slice(perm, func(a, b int) bool { return xCols[perm[a]] < xCols[perm[b]] })
		sortedX := make([]int, len(xCols))
		for p, o := range perm {
			sortedX[p] = xCols[o]
		}
		key := groupKey(c.Rel, sortedX)
		g, ok := byKey[key]
		if !ok {
			g = &cfdGroup{rel: c.Rel, xCols: sortedX}
			byKey[key] = g
			groups = append(groups, g)
		}
		m := cfdMember{c: c, idx: i, yCols: rel.Cols(c.Y), rows: make([]cfdRow, len(c.Rows))}
		for ri, row := range c.Rows {
			lhs := compilePattern(row.LHS, it)
			sortedLHS := make([]patSym, len(lhs))
			for p, o := range perm {
				sortedLHS[p] = lhs[o]
			}
			m.rows[ri] = cfdRow{
				lhs: sortedLHS,
				rhs: compilePattern(row.RHS, it),
			}
		}
		g.m = append(g.m, m)
	}
	return groups
}

// stream builds the shared X index over cr once and emits every violation
// of every member against it, as it is found. It reproduces the Section 4
// semantics exactly as the reference cfd.CFD.Violations does, including its
// deterministic order: members in input order; per member, rows in tableau
// order; X groups in first-seen order; within a group, Y partitions in
// first-seen order, equal-Y pairs (i ≤ j) before cross-partition pairs. The
// LHS pattern is checked once per group — all tuples of an X group share
// their X projection, so matching the representative decides the whole
// group. emit receives the member's position in the group and the
// violation as row ids into cr; returning false — the consumer broke, hit
// its limit, or saw cancellation — aborts the whole group. stream reports
// whether it ran to completion.
func (g *cfdGroup) stream(cr *codedRel, stop func() bool, emit func(mi int, h hit) bool) bool {
	ix := buildProjIndex(cr, g.xCols, stop)
	if ix == nil {
		return false
	}
	for mi := range g.m {
		m := &g.m[mi]
		for ri := range m.rows {
			row := &m.rows[ri]
			e := func(r1, r2 int32) bool { return emit(mi, hit{row: int32(ri), t1: r1, t2: r2}) }
			for gi := 0; gi < ix.size(); gi++ {
				if gi&1023 == 0 && stop() {
					return false
				}
				if !matchCoded(cr, int(ix.rep(gi)), ix.cols, row.lhs) {
					continue
				}
				if !partitionPairs(cr, m.yCols, row.rhs, ix.group(int32(gi)), e) {
					return false
				}
			}
		}
	}
	return true
}

// partitionPairs partitions one X bucket (tuple row ids, in scan order) by
// Y projection and calls emit for every violating pair, in reference order:
// within a failing Y partition every pair i ≤ j including (t, t), then
// every cross-partition pair. emit returning false stops enumeration early
// (the Limit path); partitionPairs reports whether it ran to completion.
// This is the single pair-semantics kernel shared by the group evaluator
// and the incremental session's bucket recomputation.
func partitionPairs(cr *codedRel, yCols []int, rhs []patSym, tups []int32, emit func(r1, r2 int32) bool) bool {
	if len(tups) == 1 {
		// Singleton fast path: only the single-tuple check applies.
		if !matchCoded(cr, int(tups[0]), yCols, rhs) {
			return emit(tups[0], tups[0])
		}
		return true
	}
	parts := newKeyGroups(len(tups))
	var order [][]int32
	var patOK []bool
	for _, ti := range tups {
		pi := parts.findOrAdd(cr, int(ti), yCols)
		if int(pi) == len(order) {
			order = append(order, nil)
			// Y projections are partition-uniform, so one pattern check
			// per partition decides it.
			patOK = append(patOK, matchCoded(cr, int(ti), yCols, rhs))
		}
		order[pi] = append(order[pi], ti)
	}
	// Equal Y values: pairs (including t,t) violate iff the Y pattern fails.
	for pi, part := range order {
		if patOK[pi] {
			continue
		}
		for i := 0; i < len(part); i++ {
			for j := i; j < len(part); j++ {
				if !emit(part[i], part[j]) {
					return false
				}
			}
		}
	}
	// Unequal Y values: every cross-partition pair violates.
	for pi := 0; pi < len(order); pi++ {
		for pj := pi + 1; pj < len(order); pj++ {
			for _, t1 := range order[pi] {
				for _, t2 := range order[pj] {
					if !emit(t1, t2) {
						return false
					}
				}
			}
		}
	}
	return true
}
