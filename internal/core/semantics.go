package cind

import (
	"fmt"

	"cind/internal/instance"
	"cind/internal/pattern"
	"cind/internal/types"
)

// Violation records one witness of CIND failure: an LHS tuple matching a
// pattern row for which no RHS tuple provides the required match
// (Section 2 semantics; cf. Example 2.2 where t10 violates ψ6).
type Violation struct {
	CIND   *CIND
	RowIdx int
	T      instance.Tuple // the violating LHS tuple
}

// String explains the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s tuple %v matches row %d of %s but has no %s match",
		v.CIND.LHSRel, v.T, v.RowIdx, v.CIND.ID, v.CIND.RHSRel)
}

// Violations returns every violation of the CIND in the database, in
// deterministic order. For each tuple t1 of the LHS relation and each row
// tp: if t1[X, Xp] ≍ tp[X, Xp] there must be a t2 in the RHS relation with
// t1[X] = t2[Y] ≍ tp[Y] and t2[Yp] ≍ tp[Yp]. The check is a hash anti-join
// per pattern row — linear in the two instance sizes — so detection scales
// to the cross-product witnesses of Theorem 3.2 and to bulk data cleaning.
//
// This method is the single-constraint reference implementation and the
// differential-testing oracle for internal/detect, which shares one Y
// index per (RHS relation, Y) across all CINDs of the group and is the
// path bulk callers use. The two produce identical violations in
// identical order.
func (c *CIND) Violations(db *instance.Database) []Violation {
	i1, i2 := db.Instance(c.LHSRel), db.Instance(c.RHSRel)
	r1, r2 := i1.Relation(), i2.Relation()
	lhsIdx := r1.Cols(c.lhsAttrs())
	xIdx := r1.Cols(c.X)
	yIdx := r2.Cols(c.Y)
	ypIdx := r2.Cols(c.Yp)

	var out []Violation
	for ri, row := range c.Rows {
		yPat := pattern.Tuple(row.RHS[:len(c.Y)])
		ypPat := pattern.Tuple(row.RHS[len(c.Y):])
		// Index the Y projections of RHS tuples that satisfy the row's
		// RHS patterns.
		keys := map[string]bool{}
		for _, t2 := range i2.Tuples() {
			y2 := t2.Project(yIdx)
			if !yPat.Matches(y2) {
				continue
			}
			if !ypPat.Matches(t2.Project(ypIdx)) {
				continue
			}
			keys[projKey(y2)] = true
		}
		for _, t1 := range i1.Tuples() {
			if !row.LHS.Matches(t1.Project(lhsIdx)) {
				continue
			}
			if !keys[projKey(t1.Project(xIdx))] {
				out = append(out, Violation{CIND: c, RowIdx: ri, T: t1})
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

// Satisfied reports whether the database satisfies the CIND.
func (c *CIND) Satisfied(db *instance.Database) bool { return len(c.Violations(db)) == 0 }

// SatisfiedAll reports whether the database satisfies every CIND of Σ.
func SatisfiedAll(sigma []*CIND, db *instance.Database) bool {
	for _, c := range sigma {
		if !c.Satisfied(db) {
			return false
		}
	}
	return true
}

// ViolationsAll collects the violations of every CIND of Σ.
func ViolationsAll(sigma []*CIND, db *instance.Database) []Violation {
	var out []Violation
	for _, c := range sigma {
		out = append(out, c.Violations(db)...)
	}
	return out
}
