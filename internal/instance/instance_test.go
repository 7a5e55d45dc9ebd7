package instance

import (
	"strings"
	"testing"

	"cind/internal/schema"
	"cind/internal/types"
)

func rel2(name, a, b string) *schema.Relation {
	d := schema.Infinite("string")
	return schema.MustRelation(name,
		schema.Attribute{Name: a, Dom: d},
		schema.Attribute{Name: b, Dom: d},
	)
}

func TestConstsAndEq(t *testing.T) {
	a := Consts("x", "y")
	b := Consts("x", "y")
	if !a.Eq(b) {
		t.Fatal("equal tuples must compare equal")
	}
	if a.Eq(Consts("x")) {
		t.Fatal("different arity tuples are unequal")
	}
	if a.Eq(Consts("x", "z")) {
		t.Fatal("different values are unequal")
	}
}

func TestTupleGroundness(t *testing.T) {
	if !Consts("a").IsGround() {
		t.Fatal("constants are ground")
	}
	mixed := Tuple{types.C("a"), types.NewVar(1, "v")}
	if mixed.IsGround() {
		t.Fatal("tuple with variable is not ground")
	}
}

func TestTupleProject(t *testing.T) {
	tp := Consts("a", "b", "c")
	got := tp.Project([]int{2, 0})
	if len(got) != 2 || got[0].Str() != "c" || got[1].Str() != "a" {
		t.Fatalf("Project = %v", got)
	}
}

func TestConstMatchesConsts(t *testing.T) {
	if !Const("x").Eq(Consts("x")[0]) {
		t.Fatal("Const and Consts must build identical values")
	}
	if Const("x").Eq(types.NewVar(1, "v")) {
		t.Fatal("Const must build a constant")
	}
}

func TestTupleKeyDisambiguatesVarsFromConsts(t *testing.T) {
	// Constant "1" and variable with id 1 must not collide in set keys.
	withConst := Tuple{types.C("1")}
	withVar := Tuple{types.NewVar(1, "v1")}
	if withConst.key() == withVar.key() {
		t.Fatal("tuple keys must keep constants and variables disjoint")
	}
}

func TestInstanceSetSemantics(t *testing.T) {
	in := NewInstance(rel2("R", "A", "B"))
	if !in.InsertConsts("a", "b") {
		t.Fatal("first insert must succeed")
	}
	if in.InsertConsts("a", "b") {
		t.Fatal("duplicate insert must be a no-op")
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d", in.Len())
	}
	if !in.Contains(Consts("a", "b")) || in.Contains(Consts("b", "a")) {
		t.Fatal("Contains wrong")
	}
}

func TestInsertArityPanics(t *testing.T) {
	in := NewInstance(rel2("R", "A", "B"))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity must panic")
		}
	}()
	in.Insert(Consts("only-one"))
}

func TestSubstituteVarMergesTuples(t *testing.T) {
	in := NewInstance(rel2("R", "A", "B"))
	v := types.NewVar(42, "v")
	in.Insert(Tuple{v, types.C("b")})
	in.Insert(Tuple{types.C("a"), types.C("b")})
	if in.Len() != 2 {
		t.Fatalf("Len = %d", in.Len())
	}
	if !in.substituteVar(42, types.C("a")) {
		t.Fatal("substitution must report a change")
	}
	if in.Len() != 1 {
		t.Fatalf("substitution must merge duplicates, Len = %d", in.Len())
	}
	if !in.Contains(Consts("a", "b")) {
		t.Fatal("merged tuple missing")
	}
	if in.substituteVar(42, types.C("z")) {
		t.Fatal("substituting an absent variable must be a no-op")
	}
}

func TestInstanceCloneIndependent(t *testing.T) {
	in := NewInstance(rel2("R", "A", "B"))
	v := types.NewVar(1, "v")
	in.Insert(Tuple{v, types.C("x")})
	cp := in.Clone()
	cp.substituteVar(1, types.C("a"))
	if in.Tuples()[0][0].IsConst() {
		t.Fatal("mutating clone must not affect original")
	}
}

func TestDatabaseBasics(t *testing.T) {
	s := schema.MustNew(rel2("R1", "A", "B"), rel2("R2", "C", "D"))
	db := NewDatabase(s)
	if !db.IsEmpty() {
		t.Fatal("fresh database is empty")
	}
	db.Insert("R1", Consts("a", "b"))
	db.Insert("R2", Consts("c", "d"))
	db.Insert("R2", Consts("c", "e"))
	if db.Size() != 3 {
		t.Fatalf("Size = %d", db.Size())
	}
	if db.MaxRelationSize() != 2 {
		t.Fatalf("MaxRelationSize = %d", db.MaxRelationSize())
	}
	if db.IsEmpty() {
		t.Fatal("database with tuples is not empty")
	}
	if !db.IsGround() {
		t.Fatal("all-constant database is ground")
	}
}

func TestDatabaseUnknownRelationPanics(t *testing.T) {
	db := NewDatabase(schema.MustNew(rel2("R", "A", "B")))
	defer func() {
		if recover() == nil {
			t.Fatal("unknown relation must panic")
		}
	}()
	db.Instance("nope")
}

func TestDatabaseSubstituteAcrossRelations(t *testing.T) {
	s := schema.MustNew(rel2("R1", "A", "B"), rel2("R2", "C", "D"))
	db := NewDatabase(s)
	v := types.NewVar(7, "v")
	db.Insert("R1", Tuple{v, types.C("b")})
	db.Insert("R2", Tuple{types.C("c"), v})
	if !db.SubstituteVar(7, types.C("z")) {
		t.Fatal("substitution must report change")
	}
	if !db.IsGround() {
		t.Fatal("both occurrences must be replaced")
	}
	if !db.Instance("R1").Contains(Consts("z", "b")) || !db.Instance("R2").Contains(Consts("c", "z")) {
		t.Fatal("replacement landed wrong")
	}
}

func TestDatabaseVarsSortedDistinct(t *testing.T) {
	s := schema.MustNew(rel2("R1", "A", "B"))
	db := NewDatabase(s)
	v3, v1 := types.NewVar(3, "v3"), types.NewVar(1, "v1")
	db.Insert("R1", Tuple{v3, v1})
	db.Insert("R1", Tuple{v1, v1})
	vars := db.Vars()
	if len(vars) != 2 || vars[0].VarID() != 1 || vars[1].VarID() != 3 {
		t.Fatalf("Vars = %v", vars)
	}
}

func TestGroundAssignsDistinctFreshConstants(t *testing.T) {
	s := schema.MustNew(rel2("R1", "A", "B"))
	db := NewDatabase(s)
	v1, v2 := types.NewVar(1, "v1"), types.NewVar(2, "v2")
	db.Insert("R1", Tuple{v1, v2})
	dom := schema.Infinite("string")
	g, ok := db.Ground(func(int64) *schema.Domain { return dom }, map[string]bool{"taken": true})
	if !ok {
		t.Fatal("grounding over infinite domains must succeed")
	}
	if !g.IsGround() {
		t.Fatal("result must be ground")
	}
	tup := g.Instance("R1").Tuples()[0]
	if tup[0].Eq(tup[1]) {
		t.Fatal("distinct variables must map to distinct constants")
	}
	// original untouched
	if db.IsGround() {
		t.Fatal("Ground must not mutate the receiver")
	}
}

func TestGroundFailsOnExhaustedFiniteDomain(t *testing.T) {
	bool2 := schema.Finite("bool", "0", "1")
	r := schema.MustRelation("R", schema.Attribute{Name: "H", Dom: bool2})
	db := NewDatabase(schema.MustNew(r))
	db.Insert("R", Tuple{types.NewVar(1, "v")})
	_, ok := db.Ground(func(int64) *schema.Domain { return bool2 },
		map[string]bool{"0": true, "1": true})
	if ok {
		t.Fatal("grounding must fail when the finite domain is exhausted")
	}
}

func TestDatabaseString(t *testing.T) {
	s := schema.MustNew(rel2("R1", "A", "B"), rel2("R2", "C", "D"))
	db := NewDatabase(s)
	db.Insert("R2", Consts("c", "d"))
	out := db.String()
	if strings.Contains(out, "R1") {
		t.Fatal("empty instances must not print")
	}
	if !strings.Contains(out, "(c, d)") {
		t.Fatalf("String = %q", out)
	}
}

func TestDeletePreservesOrder(t *testing.T) {
	in := NewInstance(rel2("r", "a", "b"))
	for _, v := range []string{"1", "2", "3", "4", "5"} {
		in.InsertConsts(v, v)
	}
	if !in.DeleteConsts("3", "3") {
		t.Fatal("delete of present tuple must report true")
	}
	if in.DeleteConsts("3", "3") {
		t.Fatal("second delete of the same tuple must report false")
	}
	want := []string{"1", "2", "4", "5"}
	if in.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", in.Len(), len(want))
	}
	for i, tu := range in.Tuples() {
		if tu[0].Str() != want[i] {
			t.Fatalf("tuple %d is %v, want first field %q (order must be preserved)", i, tu, want[i])
		}
	}
	if in.Contains(Consts("3", "3")) {
		t.Fatal("deleted tuple still Contains")
	}
	// The index must have shifted: every remaining tuple stays reachable.
	for _, v := range want {
		if !in.Contains(Consts(v, v)) {
			t.Fatalf("tuple (%s,%s) lost after delete", v, v)
		}
	}
}

func TestDeleteThenReinsertAppendsAtEnd(t *testing.T) {
	in := NewInstance(rel2("r", "a", "b"))
	in.InsertConsts("1", "1")
	in.InsertConsts("2", "2")
	in.InsertConsts("3", "3")
	in.Delete(Consts("2", "2"))
	if !in.InsertConsts("2", "2") {
		t.Fatal("re-insert after delete must succeed")
	}
	got := make([]string, in.Len())
	for i, tu := range in.Tuples() {
		got[i] = tu[0].Str()
	}
	want := []string{"1", "3", "2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order after delete+reinsert = %v, want %v", got, want)
		}
	}
}

func TestDatabaseDelete(t *testing.T) {
	sch, err := schema.New(rel2("r", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(sch)
	db.Insert("r", Consts("x", "y"))
	if !db.Delete("r", Consts("x", "y")) {
		t.Fatal("database delete of present tuple must report true")
	}
	if db.Delete("r", Consts("x", "y")) {
		t.Fatal("database delete of absent tuple must report false")
	}
	if db.Size() != 0 {
		t.Fatalf("Size = %d after delete, want 0", db.Size())
	}
}

func TestDeleteAbsentOnEmptyInstance(t *testing.T) {
	in := NewInstance(rel2("r", "a", "b"))
	if in.Delete(Consts("x", "y")) {
		t.Fatal("delete on empty instance must report false")
	}
}

// TestVersionChangesOnEveryMutation pins Version as a cache key: every
// mutation that can change an instance's contents must change the pair,
// including the ones that restore its length (delete then re-insert,
// reset then refill) or rewrite tuples in place (variable substitution).
func TestVersionChangesOnEveryMutation(t *testing.T) {
	v := types.NewVar(9, "v")
	fill := func(in *Instance) {
		in.Insert(Consts("a", "b"))
		in.Insert(Tuple{v, types.C("b")})
		in.Insert(Consts("c", "d"))
	}
	cases := []struct {
		name   string
		mutate func(in *Instance)
		wantN  int // Len after the mutation
	}{
		{"insert", func(in *Instance) { in.Insert(Consts("e", "f")) }, 4},
		{"delete", func(in *Instance) { in.Delete(Consts("c", "d")) }, 2},
		{"delete then re-insert", func(in *Instance) {
			in.Delete(Consts("a", "b"))
			in.Insert(Consts("a", "b"))
		}, 3},
		{"substitute without merge", func(in *Instance) { in.substituteVar(9, types.C("z")) }, 3},
		{"substitute with merge", func(in *Instance) { in.substituteVar(9, types.C("a")) }, 2},
		{"reset then refill", func(in *Instance) {
			in.Reset()
			fill(in)
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := NewInstance(rel2("R", "A", "B"))
			fill(in)
			next, n := in.Version()
			tc.mutate(in)
			if in.Len() != tc.wantN {
				t.Fatalf("Len = %d after the mutation, want %d", in.Len(), tc.wantN)
			}
			if next2, n2 := in.Version(); next2 == next && n2 == n {
				t.Fatalf("Version = (%d, %d) before and after the mutation", next, n)
			}
		})
	}
}
