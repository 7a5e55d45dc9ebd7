// Package cfd implements conditional functional dependencies as reviewed in
// Section 4 of the paper (introduced by Bohannon et al. [9]): a CFD on a
// relation R is a pair (R: X → Y, Tp) of an embedded FD and a pattern
// tableau over X and Y. CFDs subsume traditional FDs (all-wildcard tableau)
// and, unlike FDs, can be violated by a single tuple.
package cfd

import (
	"fmt"
	"strings"

	"cind/internal/constraint"
	"cind/internal/instance"
	"cind/internal/pattern"
	"cind/internal/schema"
	"cind/internal/types"
)

// Row is one pattern tuple of a CFD tableau, split into its LHS part
// (over X) and RHS part (over Y). The split is explicit because X and Y may
// share attribute names in degenerate constraints, so a flat named tableau
// would be ambiguous.
type Row struct {
	LHS pattern.Tuple // over X
	RHS pattern.Tuple // over Y
}

// String renders "(a, _ || b)" in the paper's ‖-separated style (ASCII ||).
func (r Row) String() string {
	lhs := strings.TrimSuffix(strings.TrimPrefix(r.LHS.String(), "("), ")")
	rhs := strings.TrimSuffix(strings.TrimPrefix(r.RHS.String(), "("), ")")
	return "(" + lhs + " || " + rhs + ")"
}

// CFD is a conditional functional dependency (R: X → Y, Tp). It implements
// the sealed constraint.Constraint interface, so mixed CFD/CIND sets can be
// carried uniformly.
type CFD struct {
	constraint.Sealed

	ID   string
	Rel  string
	X    []string
	Y    []string
	Rows []Row
}

// Kind reports constraint.KindCFD.
func (c *CFD) Kind() constraint.Kind { return constraint.KindCFD }

// Validate re-runs the constructor checks against sch: relation and
// attribute existence, X/Y disjointness, tableau widths, and pattern
// constants belonging to their attribute domains.
func (c *CFD) Validate(sch *schema.Schema) error {
	_, err := New(sch, c.ID, c.Rel, c.X, c.Y, c.Rows)
	return err
}

// New builds a CFD and validates it against the schema: the relation and
// all attributes must exist, X and Y must be disjoint and duplicate-free,
// rows must have the right widths, and every pattern constant must belong
// to its attribute's domain.
func New(sch *schema.Schema, id, rel string, x, y []string, rows []Row) (*CFD, error) {
	r, ok := sch.Relation(rel)
	if !ok {
		return nil, fmt.Errorf("cfd %s: unknown relation %s", id, rel)
	}
	c := &CFD{
		ID: id, Rel: rel,
		X:    append([]string(nil), x...),
		Y:    append([]string(nil), y...),
		Rows: rows,
	}
	seen := map[string]bool{}
	for _, a := range c.X {
		if !r.Has(a) {
			return nil, fmt.Errorf("cfd %s: relation %s has no attribute %s", id, rel, a)
		}
		if seen[a] {
			return nil, fmt.Errorf("cfd %s: duplicate LHS attribute %s", id, a)
		}
		seen[a] = true
	}
	for _, a := range c.Y {
		if !r.Has(a) {
			return nil, fmt.Errorf("cfd %s: relation %s has no attribute %s", id, rel, a)
		}
		if seen[a] {
			return nil, fmt.Errorf("cfd %s: attribute %s on both sides", id, a)
		}
		seen[a] = true
	}
	if len(c.Y) == 0 {
		return nil, fmt.Errorf("cfd %s: empty RHS", id)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("cfd %s: empty pattern tableau", id)
	}
	for i, row := range rows {
		if len(row.LHS) != len(c.X) || len(row.RHS) != len(c.Y) {
			return nil, fmt.Errorf("cfd %s: row %d has widths %d||%d, want %d||%d",
				id, i, len(row.LHS), len(row.RHS), len(c.X), len(c.Y))
		}
		for j, s := range row.LHS {
			if s.IsConst() && !r.Domain(c.X[j]).Contains(s.Const()) {
				return nil, fmt.Errorf("cfd %s: row %d: %q not in dom(%s)", id, i, s.Const(), c.X[j])
			}
		}
		for j, s := range row.RHS {
			if s.IsConst() && !r.Domain(c.Y[j]).Contains(s.Const()) {
				return nil, fmt.Errorf("cfd %s: row %d: %q not in dom(%s)", id, i, s.Const(), c.Y[j])
			}
		}
	}
	return c, nil
}

// MustNew is New for statically valid CFDs.
func MustNew(sch *schema.Schema, id, rel string, x, y []string, rows []Row) *CFD {
	c, err := New(sch, id, rel, x, y, rows)
	if err != nil {
		panic(err)
	}
	return c
}

// String renders "(R: X -> Y, { rows })".
func (c *CFD) String() string {
	rows := make([]string, len(c.Rows))
	for i, r := range c.Rows {
		rows[i] = r.String()
	}
	return fmt.Sprintf("%s: (%s: %s -> %s, {%s})",
		c.ID, c.Rel, strings.Join(c.X, ", "), strings.Join(c.Y, ", "), strings.Join(rows, ", "))
}

// IsNormal reports whether the CFD is in the normal form of Section 4:
// a single pattern row and a single RHS attribute.
func (c *CFD) IsNormal() bool { return len(c.Rows) == 1 && len(c.Y) == 1 }

// NormalForm rewrites the CFD into an equivalent set of normal-form CFDs:
// one per (row, RHS attribute) pair. IDs are suffixed deterministically.
func (c *CFD) NormalForm() []*CFD {
	if c.IsNormal() {
		return []*CFD{c}
	}
	var out []*CFD
	for i, row := range c.Rows {
		for j, yAttr := range c.Y {
			id := c.ID
			if len(c.Rows) > 1 || len(c.Y) > 1 {
				id = fmt.Sprintf("%s.%d.%d", c.ID, i, j)
			}
			out = append(out, &CFD{
				ID: id, Rel: c.Rel,
				X:    c.X,
				Y:    []string{yAttr},
				Rows: []Row{{LHS: row.LHS.Clone(), RHS: pattern.Tup(row.RHS[j])}},
			})
		}
	}
	return out
}

// IsTraditionalFD reports whether every pattern field is '_', i.e. the CFD
// is a plain FD (the special case noted in Example 4.1).
func (c *CFD) IsTraditionalFD() bool {
	for _, r := range c.Rows {
		if !r.LHS.AllWild() || !r.RHS.AllWild() {
			return false
		}
	}
	return true
}

// Constants returns the constants appearing in the tableau.
func (c *CFD) Constants() []string {
	var out []string
	for _, r := range c.Rows {
		out = append(out, r.LHS.Constants()...)
		out = append(out, r.RHS.Constants()...)
	}
	return out
}

// NormalizeAll rewrites a set of CFDs into normal form.
func NormalizeAll(cfds []*CFD) []*CFD {
	var out []*CFD
	for _, c := range cfds {
		out = append(out, c.NormalForm()...)
	}
	return out
}

// xIdx / yIdx resolve attribute positions against the relation schema.
func (c *CFD) xIdx(r *schema.Relation) []int { return r.Cols(c.X) }
func (c *CFD) yIdx(r *schema.Relation) []int { return r.Cols(c.Y) }

// Violation records one witness of CFD failure: the pair of offending
// tuples (equal for single-tuple violations) and the tableau row violated.
type Violation struct {
	CFD    *CFD
	RowIdx int
	T1, T2 instance.Tuple
}

// String explains the violation.
func (v Violation) String() string {
	kind := "pair"
	if v.T1.Eq(v.T2) {
		kind = "single-tuple"
	}
	return fmt.Sprintf("%s violates %s (row %d, %s): %v, %v",
		v.CFD.Rel, v.CFD.ID, v.RowIdx, kind, v.T1, v.T2)
}

// Violations returns every violation of the CFD in the database, in
// deterministic order. Semantics (Section 4): for each pair of tuples
// t1, t2 and each row tp, if t1[X] = t2[X] ≍ tp[X] then it must hold that
// t1[Y] = t2[Y] ≍ tp[Y]. Pairs are reported once (t1 before t2 in
// insertion order, or t1 = t2 for single-tuple violations).
//
// The implementation hash-groups LHS-matching tuples by their X projection
// and partitions each group by Y projection, so clean data costs linear
// time and dirty data costs time proportional to the number of violating
// pairs reported.
//
// This method is the single-constraint reference implementation and the
// differential-testing oracle for internal/detect, which evaluates many
// constraints off shared interned indexes and is the path bulk callers
// (the facade's Checker) use. The two produce identical violations
// in identical order.
func (c *CFD) Violations(db *instance.Database) []Violation {
	in := db.Instance(c.Rel)
	rel := in.Relation()
	xi, yi := c.xIdx(rel), c.yIdx(rel)
	tuples := in.Tuples()
	var out []Violation
	for ri, row := range c.Rows {
		// Group LHS-matching tuples by X projection, preserving order.
		groups := map[string][]instance.Tuple{}
		var order []string
		for _, t := range tuples {
			x := t.Project(xi)
			if !row.LHS.Matches(x) {
				continue
			}
			k := projKey(x)
			if _, seen := groups[k]; !seen {
				order = append(order, k)
			}
			groups[k] = append(groups[k], t)
		}
		for _, k := range order {
			group := groups[k]
			// Partition the group by Y projection.
			parts := map[string][]instance.Tuple{}
			var pOrder []string
			patOK := map[string]bool{}
			for _, t := range group {
				y := t.Project(yi)
				pk := projKey(y)
				if _, seen := parts[pk]; !seen {
					pOrder = append(pOrder, pk)
					patOK[pk] = row.RHS.Matches(y)
				}
				parts[pk] = append(parts[pk], t)
			}
			// Within a partition: equal Y values; pairs (including t,t)
			// violate exactly when the Y pattern fails.
			for _, pk := range pOrder {
				if patOK[pk] {
					continue
				}
				part := parts[pk]
				for i := 0; i < len(part); i++ {
					for j := i; j < len(part); j++ {
						out = append(out, Violation{CFD: c, RowIdx: ri, T1: part[i], T2: part[j]})
					}
				}
			}
			// Across partitions: unequal Y values; every cross pair
			// violates.
			for pi := 0; pi < len(pOrder); pi++ {
				for pj := pi + 1; pj < len(pOrder); pj++ {
					for _, t1 := range parts[pOrder[pi]] {
						for _, t2 := range parts[pOrder[pj]] {
							out = append(out, Violation{CFD: c, RowIdx: ri, T1: t1, T2: t2})
						}
					}
				}
			}
		}
	}
	return out
}

// projKey encodes a projection for hashing via the shared types.AppendKey
// encoder, keeping constants and chase variables in disjoint namespaces.
func projKey(vals []types.Value) string {
	var b []byte
	for _, v := range vals {
		b = types.AppendKey(b, v)
	}
	return string(b)
}

// SingleTupleSatisfies reports whether the singleton instance {t} satisfies
// the CFD. With one tuple the equality half of the semantics is trivial, so
// the check reduces to: t[X] ≍ tp[X] implies t[Y] ≍ tp[Y] for every row.
// Consistency checking leans on this: a set of CFDs over one relation is
// consistent iff some single tuple satisfies all of them [9].
func (c *CFD) SingleTupleSatisfies(rel *schema.Relation, t instance.Tuple) bool {
	xi, yi := c.xIdx(rel), c.yIdx(rel)
	for _, row := range c.Rows {
		if row.LHS.Matches(t.Project(xi)) && !row.RHS.Matches(t.Project(yi)) {
			return false
		}
	}
	return true
}

// Satisfied reports whether the database satisfies the CFD.
func (c *CFD) Satisfied(db *instance.Database) bool { return len(c.Violations(db)) == 0 }

// SatisfiedAll reports whether the database satisfies every CFD in the set.
func SatisfiedAll(cfds []*CFD, db *instance.Database) bool {
	for _, c := range cfds {
		if !c.Satisfied(db) {
			return false
		}
	}
	return true
}
