package inference

import (
	"strings"
	"testing"

	"cind/internal/bank"
	cind "cind/internal/core"
	"cind/internal/pattern"
	"cind/internal/schema"
)

func TestCanonKeyInvariantUnderPermutation(t *testing.T) {
	sch := twoRelSchema()
	a := cind.MustNew(sch, "a", "R", []string{"A", "B"}, []string{"F"},
		"S", []string{"C", "D"}, []string{"G"},
		[]cind.Row{{LHS: pattern.Tup(w, w, sym("0")), RHS: pattern.Tup(w, w, sym("1"))}})
	b := cind.MustNew(sch, "b", "R", []string{"B", "A"}, []string{"F"},
		"S", []string{"D", "C"}, []string{"G"},
		[]cind.Row{{LHS: pattern.Tup(w, w, sym("0")), RHS: pattern.Tup(w, w, sym("1"))}})
	if canonKey(a) != canonKey(b) {
		t.Fatalf("keys differ:\n%s\n%s", canonKey(a), canonKey(b))
	}
	c := cind.MustNew(sch, "c", "R", []string{"A", "B"}, []string{"F"},
		"S", []string{"D", "C"}, []string{"G"}, // different pairing
		[]cind.Row{{LHS: pattern.Tup(w, w, sym("0")), RHS: pattern.Tup(w, w, sym("1"))}})
	if canonKey(a) == canonKey(c) {
		t.Fatal("different pairings must have different keys")
	}
}

func TestCanonicalizePreservesSemantics(t *testing.T) {
	sch := bank.Schema()
	db := bank.Data(sch)
	for _, psi := range cind.NormalizeAll(bank.CINDs(sch)) {
		canon := canonicalize(sch, psi)
		if psi.Satisfied(db) != canon.Satisfied(db) {
			t.Fatalf("%s: canonicalization changed satisfaction", psi.ID)
		}
		if canonKey(psi) != canonKey(canon) {
			t.Fatalf("%s: canonicalization changed key", psi.ID)
		}
	}
}

func TestSubsumesReflexive(t *testing.T) {
	sch := bank.Schema()
	for _, psi := range cind.NormalizeAll(bank.CINDs(sch)) {
		c := canonicalize(sch, psi)
		if !Subsumes(c, c) {
			t.Fatalf("%s must subsume itself", psi.ID)
		}
	}
}

func TestSubsumesProjection(t *testing.T) {
	sch := twoRelSchema()
	psi := cind.MustNew(sch, "p", "R", []string{"A", "B"}, nil, "S", []string{"C", "D"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(2), RHS: pattern.Wilds(2)}})
	sub := cind.MustNew(sch, "s", "R", []string{"A"}, nil, "S", []string{"C"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	if !Subsumes(psi, sub) {
		t.Fatal("projection must be subsumed")
	}
	if Subsumes(sub, psi) {
		t.Fatal("subsumption must not go the wrong way")
	}
	// Mismatched pairing is not subsumed.
	cross := cind.MustNew(sch, "x", "R", []string{"A"}, nil, "S", []string{"D"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	if Subsumes(psi, cross) {
		t.Fatal("A↦D is not a pair of psi")
	}
}

func TestSubsumesInstantiationAndAugment(t *testing.T) {
	sch := twoRelSchema()
	psi := cind.MustNew(sch, "p", "R", []string{"A", "B"}, nil, "S", []string{"C", "D"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(2), RHS: pattern.Wilds(2)}})
	// CIND4: instantiate (B, D) with "v"; keep (A, C).
	inst := cind.MustNew(sch, "i", "R", []string{"A"}, []string{"B"},
		"S", []string{"C"}, []string{"D"},
		[]cind.Row{{LHS: pattern.Tup(w, sym("v")), RHS: pattern.Tup(w, sym("v"))}})
	if !Subsumes(psi, inst) {
		t.Fatal("CIND4 instantiation must be subsumed")
	}
	// Wrong: Yp constant differs from Xp constant — not a CIND4 result.
	bad := cind.MustNew(sch, "b", "R", []string{"A"}, []string{"B"},
		"S", []string{"C"}, []string{"D"},
		[]cind.Row{{LHS: pattern.Tup(w, sym("v")), RHS: pattern.Tup(w, sym("u"))}})
	if Subsumes(psi, bad) {
		t.Fatal("mismatched instantiation constants must not be subsumed")
	}
	// CIND5: extra Xp attribute on an unused attribute (drop pair (B,D),
	// then augment B).
	aug := cind.MustNew(sch, "a", "R", []string{"A"}, []string{"B"},
		"S", []string{"C"}, nil,
		[]cind.Row{{LHS: pattern.Tup(w, sym("z")), RHS: pattern.Tup(w)}})
	if !Subsumes(psi, aug) {
		t.Fatal("projection + CIND5 must be subsumed")
	}
	// Goal missing psi's Xp constant must not be subsumed.
	strong := cind.MustNew(sch, "st", "R", []string{"A"}, []string{"F"},
		"S", []string{"C"}, nil,
		[]cind.Row{{LHS: pattern.Tup(w, sym("0")), RHS: pattern.Tup(w)}})
	if Subsumes(strong, psi) {
		t.Fatal("cannot weaken an Xp constraint")
	}
}

func TestSubsumesYpCannotAppearFromNowhere(t *testing.T) {
	sch := twoRelSchema()
	psi := cind.MustNew(sch, "p", "R", []string{"A"}, nil, "S", []string{"C"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	goal := cind.MustNew(sch, "g", "R", []string{"A"}, nil, "S", []string{"C"}, []string{"G"},
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Tup(w, sym("1"))}})
	if Subsumes(psi, goal) {
		t.Fatal("a Yp requirement cannot be invented")
	}
}

// TestExample34 replays Example 3.4 end to end: with dom(at) =
// {saving, checking}, Σ = Fig 2 implies ψ = (account_B[at; nil] ⊆
// interest[at; nil], (_||_)) — derived via CIND2, CIND3, CIND6, CIND8.
func TestExample34(t *testing.T) {
	sch := bank.Schema()
	sigma := []*cind.CIND{
		bank.Psi1(sch, "EDI"), bank.Psi2(sch, "EDI"),
		bank.Psi5(sch), bank.Psi6(sch),
	}
	goal := cind.MustNew(sch, "goal", "account_EDI", []string{"at"}, nil,
		"interest", []string{"at"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})

	proof, ok := Derive(sch, sigma, goal, Options{})
	if !ok {
		t.Fatal("Σ must derive the Example 3.3 goal")
	}
	if len(proof.Steps) == 0 {
		t.Fatal("proof must have steps")
	}
	text := proof.String()
	if !strings.Contains(text, "CIND3") {
		t.Errorf("proof should use transitivity:\n%s", text)
	}
	if !strings.Contains(text, "CIND8") {
		t.Errorf("proof should use the CIND8 merge:\n%s", text)
	}
	// The final step must be the goal.
	last := proof.Steps[len(proof.Steps)-1]
	if canonKey(last.Result) != canonKey(canonicalize(sch, goal)) {
		t.Errorf("last step is not the goal: %v", last.Result)
	}
}

// TestExample34NeedsFiniteDomain: with an infinite at domain the derivation
// must fail — CIND8 cannot cover dom(at).
func TestExample34NeedsFiniteDomain(t *testing.T) {
	// Rebuild the bank schema with an infinite at.
	str := schema.Infinite("str")
	mkTarget := func(name string) *schema.Relation {
		return schema.MustRelation(name,
			schema.Attribute{Name: "an", Dom: str}, schema.Attribute{Name: "cn", Dom: str},
			schema.Attribute{Name: "ca", Dom: str}, schema.Attribute{Name: "cp", Dom: str},
			schema.Attribute{Name: "ab", Dom: str})
	}
	sch := schema.MustNew(
		schema.MustRelation("account_EDI",
			schema.Attribute{Name: "an", Dom: str}, schema.Attribute{Name: "cn", Dom: str},
			schema.Attribute{Name: "ca", Dom: str}, schema.Attribute{Name: "cp", Dom: str},
			schema.Attribute{Name: "at", Dom: str}),
		mkTarget("saving"), mkTarget("checking"),
		schema.MustRelation("interest",
			schema.Attribute{Name: "ab", Dom: str}, schema.Attribute{Name: "ct", Dom: str},
			schema.Attribute{Name: "at", Dom: str}, schema.Attribute{Name: "rt", Dom: str}),
	)
	mkPsi := func(id, atVal, target, branch string) *cind.CIND {
		return cind.MustNew(sch, id, "account_EDI",
			[]string{"an", "cn", "ca", "cp"}, []string{"at"},
			target, []string{"an", "cn", "ca", "cp"}, []string{"ab"},
			[]cind.Row{{LHS: pattern.Tup(w, w, w, w, sym(atVal)), RHS: pattern.Tup(w, w, w, w, sym(branch))}})
	}
	mkInt := func(id, src, atVal string) *cind.CIND {
		return cind.MustNew(sch, id, src, nil, []string{"ab"},
			"interest", nil, []string{"ab", "at", "ct", "rt"},
			[]cind.Row{{LHS: pattern.Tup(sym("EDI")),
				RHS: pattern.Tup(sym("EDI"), sym(atVal), sym("UK"), sym("1%"))}})
	}
	sigma := []*cind.CIND{
		mkPsi("p1", "saving", "saving", "EDI"), mkPsi("p2", "checking", "checking", "EDI"),
		mkInt("p5", "saving", "saving"), mkInt("p6", "checking", "checking"),
	}
	goal := cind.MustNew(sch, "goal", "account_EDI", []string{"at"}, nil,
		"interest", []string{"at"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	if _, ok := Derive(sch, sigma, goal, Options{MaxFacts: 2000, MaxRounds: 8}); ok {
		t.Fatal("without a finite at domain the goal must not be derivable")
	}
}

func TestDeriveMemberOfSigma(t *testing.T) {
	sch := bank.Schema()
	sigma := bank.CINDs(sch)
	proof, ok := Derive(sch, sigma, bank.Psi3(sch), Options{})
	if !ok {
		t.Fatal("a member of Σ derives trivially")
	}
	if len(proof.Steps) < 1 {
		t.Fatal("proof missing")
	}
}

func TestDeriveReflexiveGoal(t *testing.T) {
	sch := bank.Schema()
	goal := cind.MustNew(sch, "g", "saving", []string{"an", "ab"}, nil,
		"saving", []string{"an", "ab"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(2), RHS: pattern.Wilds(2)}})
	if _, ok := Derive(sch, nil, goal, Options{}); !ok {
		t.Fatal("reflexivity goals derive from the empty Σ")
	}
}

func TestDeriveTransitiveChain(t *testing.T) {
	sch := bank.Schema()
	// saving[ab] ⊆ interest[ab] and a fabricated interest[ab] ⊆ interest[ab]
	// chain; also the paper's ψ3/ψ4 with a projected ψ1.
	sigma := []*cind.CIND{bank.Psi1(sch, "NYC"), bank.Psi3(sch)}
	// account_NYC saving rows map into saving, whose ab maps into interest:
	// goal (account_NYC[nil; at=saving] ⊆ interest[nil; nil]) — weaker than
	// what Σ gives; the engine must find it.
	goal := cind.MustNew(sch, "g", "account_NYC", nil, []string{"at"},
		"interest", nil, nil,
		[]cind.Row{{LHS: pattern.Tup(sym("saving")), RHS: pattern.Tup()}})
	if _, ok := Derive(sch, sigma, goal, Options{}); !ok {
		t.Fatal("chained composition must derive the goal")
	}
}

func TestDeriveUnderivable(t *testing.T) {
	sch := bank.Schema()
	sigma := []*cind.CIND{bank.Psi3(sch)}
	goal := cind.MustNew(sch, "g", "interest", []string{"ab"}, nil,
		"saving", []string{"ab"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	if _, ok := Derive(sch, sigma, goal, Options{MaxFacts: 500, MaxRounds: 6}); ok {
		t.Fatal("the converse of ψ3 must not derive")
	}
}

// TestProofWellFormed: every proof references only earlier steps, starts
// from Σ/CIND1 leaves, and ends with the goal.
func TestProofWellFormed(t *testing.T) {
	sch := bank.Schema()
	sigma := bank.CINDs(sch)
	goal := cind.MustNew(sch, "goal", "account_EDI", []string{"at"}, nil,
		"interest", []string{"at"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	proof, ok := Derive(sch, sigma, goal, Options{})
	if !ok {
		t.Fatal("derivation expected")
	}
	for i, s := range proof.Steps {
		for _, p := range s.Premises {
			if p >= i {
				t.Fatalf("step %d references later/self premise %d", i, p)
			}
		}
		if len(s.Premises) == 0 && s.Rule != "Σ" && s.Rule != "CIND1" {
			t.Fatalf("step %d: leaf with rule %s", i, s.Rule)
		}
		if s.Result == nil || !s.Result.IsNormal() {
			t.Fatalf("step %d: malformed result", i)
		}
	}
}

// TestDerivedFactsAreSound: everything the engine derives from the bank Σ
// must hold on the clean bank instance (which satisfies Σ). Driven by an
// underivable goal, the engine saturates; every fact of the closure is
// checked, not just a sample of compositions.
func TestDerivedFactsAreSound(t *testing.T) {
	sch := bank.Schema()
	sigma := bank.CINDs(sch)
	db := bank.CleanData(sch)
	if !cind.SatisfiedAll(sigma, db) {
		t.Fatal("precondition: clean data satisfies Σ")
	}
	goal := cind.MustNew(sch, "g", "interest", []string{"ab"}, nil,
		"saving", []string{"ab"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	s := saturate(sch, sigma, goal, Options{})
	if s.goalsMet() {
		t.Fatal("the goal must stay underivable")
	}
	rules := map[string]int{}
	for i, f := range s.facts {
		if !f.psi.Satisfied(db) {
			t.Fatalf("fact %d %v [%s %v] violated on clean data", i, f.psi, f.rule, f.premises)
		}
		rules[f.rule]++
	}
	for _, r := range []string{"CIND3", "CIND6", "CIND7", "CIND8"} {
		if rules[r] == 0 {
			t.Fatalf("closure of %d facts has no %s fact (rules %v)", len(s.facts), r, rules)
		}
	}
	t.Logf("%d facts, by rule %v", len(s.facts), rules)
}

// twoMergeSchema: R(A, at), S(B, st), T(C), with at and st over the finite
// domain {a, b}.
func twoMergeSchema() *schema.Schema {
	d := schema.Infinite("d")
	f := schema.Finite("f", "a", "b")
	return schema.MustNew(
		schema.MustRelation("R", schema.Attribute{Name: "A", Dom: d}, schema.Attribute{Name: "at", Dom: f}),
		schema.MustRelation("S", schema.Attribute{Name: "B", Dom: d}, schema.Attribute{Name: "st", Dom: f}),
		schema.MustRelation("T", schema.Attribute{Name: "C", Dom: d}),
	)
}

// TestMergesFireInSortedOrder: two CIND7 groups complete in the same
// round — R[A; at] ⊆ S[B] and S[B; st] ⊆ T[C], each over both values of
// the finite domain — and the goal R[A] ⊆ T[C] needs both merged facts.
// The groups fire in sorted-key order, so the proof is the same on every
// run and every premise precedes its step.
func TestMergesFireInSortedOrder(t *testing.T) {
	sch := twoMergeSchema()
	var sigma []*cind.CIND
	for _, v := range []string{"a", "b"} {
		sigma = append(sigma,
			cind.MustNew(sch, "rs_"+v, "R", []string{"A"}, []string{"at"}, "S", []string{"B"}, nil,
				[]cind.Row{{LHS: pattern.Tup(w, sym(v)), RHS: pattern.Wilds(1)}}),
			cind.MustNew(sch, "st_"+v, "S", []string{"B"}, []string{"st"}, "T", []string{"C"}, nil,
				[]cind.Row{{LHS: pattern.Tup(w, sym(v)), RHS: pattern.Wilds(1)}}))
	}
	goal := cind.MustNew(sch, "g", "R", []string{"A"}, nil, "T", []string{"C"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	var first string
	for run := 0; run < 200; run++ {
		proof, ok := Derive(sch, sigma, goal, Options{})
		if !ok {
			t.Fatal("R[A] ⊆ T[C] must be derivable from the two merges")
		}
		got := proof.String()
		if run == 0 {
			first = got
			merges := 0
			for i, s := range proof.Steps {
				for _, p := range s.Premises {
					if p >= i {
						t.Fatalf("step %d references later/self premise %d:\n%s", i+1, p+1, got)
					}
				}
				if s.Rule == "CIND7" {
					merges++
				}
			}
			if merges != 2 {
				t.Fatalf("proof uses %d CIND7 merges, want 2:\n%s", merges, got)
			}
			continue
		}
		if got != first {
			t.Fatalf("run %d: proof differs from run 0:\n%s\nvs\n%s", run, got, first)
		}
	}
}
