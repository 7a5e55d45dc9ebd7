package detect

import (
	core "cind/internal/core"
	"cind/internal/instance"
	"cind/internal/pattern"
	"cind/internal/types"
)

// cindGroup batches every CIND over the same (RHS relation, Y attribute
// list): one shared Y-projection index over the RHS instance serves all
// tableau rows of all members. Members may have different LHS relations.
type cindGroup struct {
	rhsRel string
	yCols  []int
	m      []cindMember
}

// cindMember is one CIND of a group with its patterns compiled to codes.
type cindMember struct {
	c       *core.CIND
	idx     int
	lhsRel  string
	lhsCols []int // X ++ Xp positions in the LHS relation
	xCols   []int // X positions in the LHS relation
	ypCols  []int // Yp positions in the RHS relation
	rows    []cindRow
}

type cindRow struct {
	lhs []patSym // over X ++ Xp
	y   []patSym // over Y
	yp  []patSym // over Yp
}

// planCINDs groups the input CINDs and compiles their patterns.
func planCINDs(db *instance.Database, cinds []*core.CIND, it *types.Interner) []*cindGroup {
	byKey := map[string]*cindGroup{}
	var groups []*cindGroup
	for i, c := range cinds {
		rhs := db.Instance(c.RHSRel).Relation()
		yCols := rhs.Cols(c.Y)
		key := groupKey(c.RHSRel, yCols)
		g, ok := byKey[key]
		if !ok {
			g = &cindGroup{rhsRel: c.RHSRel, yCols: yCols}
			byKey[key] = g
			groups = append(groups, g)
		}
		lhs := db.Instance(c.LHSRel).Relation()
		lhsAttrs := append(append([]string(nil), c.X...), c.Xp...)
		m := cindMember{
			c: c, idx: i, lhsRel: c.LHSRel,
			lhsCols: lhs.Cols(lhsAttrs),
			xCols:   lhs.Cols(c.X),
			ypCols:  rhs.Cols(c.Yp),
			rows:    make([]cindRow, len(c.Rows)),
		}
		for ri, row := range c.Rows {
			m.rows[ri] = cindRow{
				lhs: compilePattern(row.LHS, it),
				y:   compilePattern(pattern.Tuple(row.RHS[:len(c.Y)]), it),
				yp:  compilePattern(pattern.Tuple(row.RHS[len(c.Y):]), it),
			}
		}
		g.m = append(g.m, m)
	}
	return groups
}

// rowWork is one (member, tableau row) anti-join of a group: the LHS
// tuples matching the row's LHS pattern, each with the slot of its demanded
// X projection.
type rowWork struct {
	mi   int // member position in the group
	m    *cindMember
	ri   int
	tups []int32 // matching LHS tuple indices, in insertion order
	slot []int32 // parallel: demanded-key slot per matching tuple
}

// antiJoin runs the first two phases of the group's demand-driven
// evaluation off one shared scan of the RHS instance: the first pass over
// each LHS instance collects the X projections the inclusion actually
// demands (one slot per distinct key), and the single RHS pass marks which
// demands each tableau row satisfies. Hashing is therefore bounded by the
// demanded keys, not by the RHS size — a CIND whose LHS has three tuples
// never pays to index a million-tuple RHS relation. satisfied is a bitset
// indexed (slot, work), packed as stride 64-bit words per slot: Y
// projections are slot-uniform, so the row's Y pattern and the per-tuple
// Yp pattern decide each (slot, work) pair.
//
// rhs is the coded RHS instance, lhs[mi] member mi's coded LHS instance.
// Both scans poll stop; a stopped anti-join reports ok == false and the
// caller discards the partial state. A CIND violation is only known after
// the full RHS scan (absence of a match), so this is the earliest the
// engine can emit anything for the group.
func (g *cindGroup) antiJoin(rhs *codedRel, lhs []*codedRel, stop func() bool) (works []rowWork, satisfied []uint64, stride int, ok bool) {
	// Count each (member, row)'s matching LHS tuples first, so its two
	// lists are one allocation at their final size — a pattern match costs
	// less than a trail of outgrown copies — and the demand table can be
	// sized: a satisfiable demand equals some RHS tuple's Y projection, so
	// on mostly clean data the distinct demands number about the smaller
	// of the matches and the RHS size.
	total := 0
	for mi := range g.m {
		m := &g.m[mi]
		for ri := range m.rows {
			n := 0
			for i := range lhs[mi].tuples {
				if i&8191 == 0 && stop() {
					return nil, nil, 0, false
				}
				if matchCoded(lhs[mi], i, m.lhsCols, m.rows[ri].lhs) {
					n++
				}
			}
			buf := make([]int32, 2*n)
			works = append(works, rowWork{mi: mi, m: m, ri: ri, tups: buf[:0:n], slot: buf[n:n]})
			total += n
		}
	}
	slots := newKeyGroups(min(total, len(rhs.tuples)))
	for wi := range works {
		w := &works[wi]
		crL, row := lhs[w.mi], &w.m.rows[w.ri]
		for i := range crL.tuples {
			if i&8191 == 0 && stop() {
				return nil, nil, 0, false
			}
			if !matchCoded(crL, i, w.m.lhsCols, row.lhs) {
				continue
			}
			w.tups = append(w.tups, int32(i))
			w.slot = append(w.slot, slots.findOrAdd(crL, i, w.m.xCols))
		}
	}

	// One scan of the RHS instance satisfies demands for every row at once.
	nw := len(works)
	stride = (nw + 63) / 64
	satisfied = make([]uint64, slots.size()*stride)
	for i := range rhs.tuples {
		if i&8191 == 0 && stop() {
			return nil, nil, 0, false
		}
		si := slots.find(rhs, i, g.yCols)
		if si < 0 {
			continue
		}
		base := int(si) * stride
		for wi := range works {
			w := &works[wi]
			if satisfied[base+wi/64]&(1<<(wi%64)) != 0 {
				continue
			}
			row := &w.m.rows[w.ri]
			if matchCoded(rhs, i, g.yCols, row.y) && matchCoded(rhs, i, w.m.ypCols, row.yp) {
				satisfied[base+wi/64] |= 1 << (wi % 64)
			}
		}
	}
	return works, satisfied, stride, true
}

// stream runs every (member, row) anti-join of the group and emits each
// violation as soon as the shared RHS scan completes, in reference order:
// members in input order, rows in tableau order, LHS tuples in insertion
// order (works were appended in exactly that order).
//
// This reproduces the Section 2 semantics of the reference
// core.CIND.Violations exactly: an LHS tuple t1 matching tp[X, Xp]
// violates iff no RHS tuple t2 has t2[Y] = t1[X] with t2[Y] ≍ tp[Y] and
// t2[Yp] ≍ tp[Yp]. emit receives the member's position in the group and
// the violation, with t1 its row id in the member's LHS instance; returning
// false aborts the whole group. stream reports whether it ran to
// completion.
func (g *cindGroup) stream(rhs *codedRel, lhs []*codedRel, stop func() bool, emit func(mi int, h hit) bool) bool {
	works, satisfied, stride, ok := g.antiJoin(rhs, lhs, stop)
	if !ok {
		return false
	}
	for wi := range works {
		w := &works[wi]
		for k, ti := range w.tups {
			if k&8191 == 0 && stop() {
				return false
			}
			if satisfied[int(w.slot[k])*stride+wi/64]&(1<<(wi%64)) != 0 {
				continue
			}
			if !emit(w.mi, hit{row: int32(w.ri), t1: ti}) {
				return false
			}
		}
	}
	return true
}
