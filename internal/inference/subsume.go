package inference

import (
	cind "cind/internal/core"
	"cind/internal/pattern"
	"cind/internal/schema"
)

// pair is one X=Y pair of a CIND's embedded IND.
type pair struct{ x, y string }

// entry is one (attribute, constant) entry of Xp or Yp.
type entry struct{ attr, c string }

// form is a normal-form CIND taken apart into the parts of its canonical
// key: the relations, the X=Y pairs and the Xp and Yp entries. Each list is
// in key order — "x=y" and "attr:c" compared as strings, ties broken by the
// first part — so the key is the parts written out in order, and two forms
// with the same key are the same CIND up to a CIND2 permutation.
type form struct {
	lhs, rhs string
	pairs    []pair
	xp, yp   []entry
}

// formOf takes a normal-form CIND apart.
func formOf(psi *cind.CIND) form {
	f := form{
		lhs: psi.LHSRel, rhs: psi.RHSRel,
		pairs: make([]pair, len(psi.X)),
		xp:    entriesOf(psi.Xp, psi.XpPattern()),
		yp:    entriesOf(psi.Yp, psi.YpPattern()),
	}
	for i := range psi.X {
		f.pairs[i] = pair{psi.X[i], psi.Y[i]}
	}
	sortPairs(f.pairs)
	return f
}

func entriesOf(attrs []string, syms pattern.Tuple) []entry {
	es := make([]entry, len(attrs))
	for i, a := range attrs {
		es[i] = entry{a, syms[i].Const()}
	}
	sortEntries(es)
	return es
}

// appendKey appends f's canonical key to b, leaving out the Xp entry on
// maskX and the Yp entry on maskY ("" masks nothing: attribute names are
// never empty). The key reads R1[x=y,...;a:c,...]->R2[b:c,...]. Facts are
// deduplicated by it, and the CIND7/CIND8 merge groups by its masked forms.
func (f *form) appendKey(b []byte, maskX, maskY string) []byte {
	b = append(b, f.lhs...)
	b = append(b, '[')
	for i, p := range f.pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p.x...)
		b = append(b, '=')
		b = append(b, p.y...)
	}
	b = append(b, ';')
	b = appendEntries(b, f.xp, maskX)
	b = append(b, "]->"...)
	b = append(b, f.rhs...)
	b = append(b, '[')
	b = appendEntries(b, f.yp, maskY)
	return append(b, ']')
}

func appendEntries(b []byte, es []entry, mask string) []byte {
	sep := false
	for _, e := range es {
		if e.attr == mask {
			continue
		}
		if sep {
			b = append(b, ',')
		}
		sep = true
		b = append(b, e.attr...)
		b = append(b, ':')
		b = append(b, e.c...)
	}
	return b
}

// sortPairs and sortEntries put a short list in key order by insertion.
func sortPairs(ps []pair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && joinedLess(ps[j].x, ps[j].y, ps[j-1].x, ps[j-1].y, '='); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func sortEntries(es []entry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && joinedLess(es[j].attr, es[j].c, es[j-1].attr, es[j-1].c, ':'); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// joinedLess reports whether a1+sep+a2 sorts before b1+sep+b2 without
// building either string; equal joins order by their first part.
func joinedLess(a1, a2, b1, b2 string, sep byte) bool {
	if a1 == b1 {
		return a2 < b2
	}
	for i := 0; ; i++ {
		ca, oka := joinedAt(a1, a2, sep, i)
		cb, okb := joinedAt(b1, b2, sep, i)
		switch {
		case oka != okb:
			return !oka // a proper prefix sorts first
		case !oka:
			return a1 < b1
		case ca != cb:
			return ca < cb
		}
	}
}

func joinedAt(s1, s2 string, sep byte, i int) (byte, bool) {
	switch {
	case i < len(s1):
		return s1[i], true
	case i == len(s1):
		return sep, true
	case i-len(s1)-1 < len(s2):
		return s2[i-len(s1)-1], true
	}
	return 0, false
}

// build constructs f's CIND in canonical order — pairs sorted by (X, Y)
// attribute, Xp and Yp by attribute — through cind.New, so that it is
// schema-valid and structurally equal facts are identical.
func build(sch *schema.Schema, id string, f *form) (*cind.CIND, error) {
	n, nx, ny := len(f.pairs), len(f.xp), len(f.yp)
	names := make([]string, 2*n+nx+ny)
	x, y, xp, yp := names[:n], names[n:2*n], names[2*n:2*n+nx], names[2*n+nx:]
	for i, p := range f.pairs {
		j := i
		for ; j > 0 && (x[j-1] > p.x || x[j-1] == p.x && y[j-1] > p.y); j-- {
			x[j], y[j] = x[j-1], y[j-1]
		}
		x[j], y[j] = p.x, p.y
	}
	lhs := pattern.Wilds(n + nx)
	rhs := pattern.Wilds(n + ny)
	byAttr(f.xp, xp, lhs[n:])
	byAttr(f.yp, yp, rhs[n:])
	return cind.New(sch, id, f.lhs, x, xp, f.rhs, y, yp, []cind.Row{{LHS: lhs, RHS: rhs}})
}

// byAttr writes es's attributes and constants into attrs and syms in
// attribute order.
func byAttr(es []entry, attrs []string, syms pattern.Tuple) {
	for i, e := range es {
		j := i
		for ; j > 0 && attrs[j-1] > e.attr; j-- {
			attrs[j], syms[j] = attrs[j-1], syms[j-1]
		}
		attrs[j], syms[j] = e.attr, pattern.Sym(e.c)
	}
}

// lookup returns the constant of attr among es.
func lookup(es []entry, attr string) (string, bool) {
	for _, e := range es {
		if e.attr == attr {
			return e.c, true
		}
	}
	return "", false
}

func hasPair(ps []pair, p pair) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// keepsX reports whether attr is an X attribute of one of ps.
func keepsX(ps []pair, attr string) bool {
	for _, p := range ps {
		if p.x == attr {
			return true
		}
	}
	return false
}

// Subsumes reports whether goal is derivable from psi using only the
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
func Subsumes(psi, goal *cind.CIND) bool {
	if !psi.IsNormal() || !goal.IsNormal() {
		return false
	}
	p, g := formOf(psi), formOf(goal)
	return subsumes(&p, &g)
}

// subsumes is Subsumes over forms; it allocates nothing.
func subsumes(p, g *form) bool {
	if p.lhs != g.lhs || p.rhs != g.rhs {
		return false
	}
	for _, gp := range g.pairs {
		if !hasPair(p.pairs, gp) {
			return false
		}
	}
	// psi's Xp must be a sub-map of goal's Xp.
	for _, e := range p.xp {
		if c, _ := lookup(g.xp, e.attr); c != e.c {
			return false
		}
	}
	// Resolve goal's Yp entries: directly from psi's Yp, or by CIND4 on the
	// one psi pair (A, B) ending at B (Y attributes are distinct), unused by
	// the goal, with goal Xp[A] == c.
	for _, e := range g.yp {
		if c, ok := lookup(p.yp, e.attr); ok && c == e.c {
			continue
		}
		found := false
		for _, pp := range p.pairs {
			if pp.y != e.attr || hasPair(g.pairs, pp) {
				continue
			}
			if c, ok := lookup(g.xp, pp.x); ok && c == e.c {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	// Remaining goal Xp entries psi lacks come from the CIND4 steps above or
	// from CIND5, which requires the attribute not to sit among the kept
	// pairs' X attributes. A kept pair is never instantiated (X attributes
	// are distinct), so an attribute there is not covered. Everything else in
	// psi's Yp is dropped by CIND6.
	for _, e := range g.xp {
		if _, ok := lookup(p.xp, e.attr); !ok && keepsX(g.pairs, e.attr) {
			return false
		}
	}
	return true
}
