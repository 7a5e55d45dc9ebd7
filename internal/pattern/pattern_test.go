package pattern

import (
	"testing"
	"testing/quick"

	"cind/internal/types"
)

func TestSymbolBasics(t *testing.T) {
	if !Wild.IsWild() || Wild.IsConst() {
		t.Fatal("Wild misclassified")
	}
	s := Sym("EDI")
	if s.IsWild() || !s.IsConst() {
		t.Fatal("Sym misclassified")
	}
	if s.Const() != "EDI" {
		t.Fatalf("Const = %q", s.Const())
	}
	if s.String() != "EDI" || Wild.String() != "_" {
		t.Fatal("String wrong")
	}
}

func TestZeroSymbolIsWild(t *testing.T) {
	var s Symbol
	if !s.IsWild() {
		t.Fatal("zero Symbol must be the wildcard")
	}
}

func TestConstPanicsOnWild(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Const on wildcard must panic")
		}
	}()
	Wild.Const()
}

// TestMatchOrder exercises the ≍ table from Sections 2 and 5.1:
// constants match themselves and '_'; variables match only '_'.
func TestMatchOrder(t *testing.T) {
	v := types.NewVar(1, "v")
	cases := []struct {
		sym  Symbol
		val  types.Value
		want bool
	}{
		{Sym("a"), types.C("a"), true},
		{Sym("a"), types.C("b"), false},
		{Wild, types.C("a"), true},
		{Wild, v, true},      // v ≍ '_'
		{Sym("a"), v, false}, // v 6≍ a
		{Sym(""), types.C(""), true},
	}
	for _, c := range cases {
		if got := c.sym.Matches(c.val); got != c.want {
			t.Errorf("%v.Matches(%v) = %v, want %v", c.sym, c.val, got, c.want)
		}
	}
}

func TestTupleMatches(t *testing.T) {
	// (EDI, UK, 1.5%) ≍ (EDI, UK, _) but (EDI, UK, 4.5%) 6≍ (EDI, UK, 10.5%)
	// — the example under "Semantics" in Section 2.
	tp := Tup(Sym("EDI"), Sym("UK"), Wild)
	if !tp.Matches([]types.Value{types.C("EDI"), types.C("UK"), types.C("1.5%")}) {
		t.Fatal("paper example 1 must match")
	}
	tp2 := Tup(Sym("EDI"), Sym("UK"), Sym("10.5%"))
	if tp2.Matches([]types.Value{types.C("EDI"), types.C("UK"), types.C("4.5%")}) {
		t.Fatal("paper example 2 must not match")
	}
}

func TestTupleMatchesLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	Tup(Wild).Matches([]types.Value{types.C("a"), types.C("b")})
}

func TestWilds(t *testing.T) {
	tp := Wilds(3)
	if len(tp) != 3 || !tp.AllWild() {
		t.Fatalf("Wilds(3) = %v", tp)
	}
	if !tp.Matches([]types.Value{types.NewVar(1, "x"), types.C("a"), types.C("")}) {
		t.Fatal("all-wild pattern matches everything")
	}
}

func TestAllWild(t *testing.T) {
	if Tup(Wild, Sym("a")).AllWild() {
		t.Fatal("pattern with constant is not all-wild")
	}
	if !Tup().AllWild() {
		t.Fatal("empty pattern is vacuously all-wild")
	}
}

func TestTupleEqAndClone(t *testing.T) {
	a := Tup(Sym("x"), Wild)
	b := a.Clone()
	if !a.Eq(b) {
		t.Fatal("clone must be equal")
	}
	b[0] = Wild
	if a.Eq(b) {
		t.Fatal("mutating clone must not affect original")
	}
	if a.Eq(Tup(Sym("x"))) {
		t.Fatal("length-mismatched tuples are unequal")
	}
}

func TestConstants(t *testing.T) {
	tp := Tup(Sym("a"), Wild, Sym("b"))
	got := tp.Constants()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Constants = %v", got)
	}
	if Tup(Wild).Constants() != nil {
		t.Fatal("all-wild tuple has no constants")
	}
}

func TestSubsumedBy(t *testing.T) {
	spec := Tup(Sym("a"), Sym("b"))
	gen := Tup(Sym("a"), Wild)
	if !spec.SubsumedBy(gen) {
		t.Fatal("(a,b) is subsumed by (a,_)")
	}
	if gen.SubsumedBy(spec) {
		t.Fatal("(a,_) is not subsumed by (a,b)")
	}
	if !spec.SubsumedBy(spec) {
		t.Fatal("subsumption is reflexive")
	}
	if spec.SubsumedBy(Tup(Wild)) {
		t.Fatal("length mismatch is never subsumption")
	}
}

// TestSubsumptionSoundness property-checks the defining property of
// SubsumedBy: if tp ⊑ q then every ground tuple matching tp matches q.
func TestSubsumptionSoundness(t *testing.T) {
	f := func(consts [3]bool, vals [3]uint8, groundSel [3]uint8) bool {
		syms := make(Tuple, 3)
		for i := range syms {
			if consts[i] {
				syms[i] = Sym(string(rune('a' + vals[i]%4)))
			}
		}
		gen := make(Tuple, 3)
		for i := range gen {
			// generalise some fields to '_'
			if vals[i]%2 == 0 {
				gen[i] = syms[i]
			}
		}
		ground := make([]types.Value, 3)
		for i := range ground {
			if syms[i].IsConst() && groundSel[i]%2 == 0 {
				ground[i] = types.C(syms[i].Const())
			} else {
				ground[i] = types.C(string(rune('a' + groundSel[i]%4)))
			}
		}
		if syms.SubsumedBy(gen) && syms.Matches(ground) && !gen.Matches(ground) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTableauValidation(t *testing.T) {
	if _, err := NewTableau([]string{"A", "B"}, Tup(Wild)); err == nil {
		t.Fatal("short row must fail")
	}
	tb, err := NewTableau([]string{"A", "B"}, Tup(Wild, Sym("x")))
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := tb.Index("B"); !ok || i != 1 {
		t.Fatalf("Index(B) = %d, %v", i, ok)
	}
	if _, ok := tb.Index("C"); ok {
		t.Fatal("Index on unknown attribute")
	}
}

func TestTableauProject(t *testing.T) {
	tb := MustTableau([]string{"A", "B", "C"},
		Tup(Sym("1"), Sym("2"), Sym("3")),
		Tup(Wild, Sym("5"), Wild),
	)
	rows := tb.Project([]string{"C", "A"})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].String() != "(3, 1)" {
		t.Fatalf("row0 = %v", rows[0])
	}
	if rows[1].String() != "(_, _)" {
		t.Fatalf("row1 = %v", rows[1])
	}
}

func TestTableauProjectUnknownPanics(t *testing.T) {
	tb := MustTableau([]string{"A"}, Tup(Wild))
	defer func() {
		if recover() == nil {
			t.Fatal("projecting unknown attribute must panic")
		}
	}()
	tb.Project([]string{"Z"})
}

func TestTableauCloneIndependent(t *testing.T) {
	tb := MustTableau([]string{"A"}, Tup(Sym("x")))
	cp := tb.Clone()
	cp.Rows[0][0] = Wild
	if tb.Rows[0][0].IsWild() {
		t.Fatal("Clone must deep-copy rows")
	}
}

func TestTableauString(t *testing.T) {
	tb := MustTableau([]string{"A", "B"}, Tup(Sym("x"), Wild), Tup(Wild, Wild))
	want := "[A, B]: (x, _), (_, _)"
	if tb.String() != want {
		t.Fatalf("String = %q, want %q", tb.String(), want)
	}
}

func TestTableauConstants(t *testing.T) {
	tb := MustTableau([]string{"A", "B"}, Tup(Sym("x"), Wild), Tup(Wild, Sym("y")))
	got := tb.Constants()
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("Constants = %v", got)
	}
}
