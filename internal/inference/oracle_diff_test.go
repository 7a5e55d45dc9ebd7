package inference

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"cind/internal/bank"
	cind "cind/internal/core"
	"cind/internal/gen"
	"cind/internal/pattern"
	"cind/internal/schema"
)

// requireOracleFacts saturates sigma toward goal with both engines and
// requires the complete fact lists to agree fact for fact: key, CIND text
// (ID included), rule, premises and note, and the subsuming fact of every
// goal component. It returns the engine's saturation.
func requireOracleFacts(t *testing.T, name string, sch *schema.Schema, sigma []*cind.CIND, goal *cind.CIND, opts Options) *saturation {
	t.Helper()
	want := oracleSaturate(sch, sigma, goal, opts)
	got := saturate(context.Background(), Prepare(sch, sigma), goal, opts)
	for i := 0; i < len(want.facts) || i < len(got.facts); i++ {
		if i >= len(got.facts) || i >= len(want.facts) {
			t.Fatalf("%s: %d facts, oracle %d", name, len(got.facts), len(want.facts))
		}
		w, g := want.facts[i], got.facts[i]
		wkey := canonKey(w.psi)
		if canonKey(g.psi) != wkey || g.key != wkey || g.psi.String() != w.psi.String() ||
			g.rule != w.rule || !slices.Equal(g.premises, w.premises) || g.note != w.note {
			t.Fatalf("%s: fact %d differs:\n got %s %s [%s %v %q]\nwant %s %s [%s %v %q]", name, i,
				g.key, g.psi, g.rule, g.premises, g.note, wkey, w.psi, w.rule, w.premises, w.note)
		}
	}
	if !slices.Equal(got.goalDone, want.goalDone) {
		t.Fatalf("%s: goals discharged by facts %v, oracle %v", name, got.goalDone, want.goalDone)
	}
	for i := range want.goals {
		if got.goals[i].psi.String() != want.goals[i].String() {
			t.Fatalf("%s: goal %d is %s, oracle %s", name, i, got.goals[i].psi, want.goals[i])
		}
	}
	return got
}

// rotatedBank is the bank Σ plus three copies of every CIND with the X/Y
// lists rotated jointly, as Minimize's acceptance workload builds it.
func rotatedBank(sch *schema.Schema) []*cind.CIND {
	base := bank.CINDs(sch)
	out := append([]*cind.CIND(nil), base...)
	for copyIdx := 1; copyIdx <= 3; copyIdx++ {
		for _, c := range base {
			x := append([]string(nil), c.X...)
			y := append([]string(nil), c.Y...)
			if len(x) > 1 {
				rot := copyIdx % len(x)
				x = append(x[rot:], x[:rot]...)
				y = append(y[rot:], y[:rot]...)
			}
			out = append(out, cind.MustNew(sch, fmt.Sprintf("%s_copy%d", c.ID, copyIdx),
				c.LHSRel, x, c.Xp, c.RHSRel, y, c.Yp, c.Rows))
		}
	}
	return out
}

// TestFactSequenceMatchesOracle: the pre-keyed engine admits exactly the
// facts the oracle engine admits, in the same order, on every decision
// one Minimize of the rotated bank makes, on Example 3.4, and on generated
// Σ under the default bounds and under caps small enough to trip.
func TestFactSequenceMatchesOracle(t *testing.T) {
	rules := map[string]int{}
	capped := 0 // decisions that stopped at MaxFacts
	tally := func(s *saturation) {
		for _, f := range s.facts {
			rules[f.rule]++
		}
		if s.full() {
			capped++
		}
	}
	t.Run("minimize-rotated-bank", func(t *testing.T) {
		sch := bank.Schema()
		cur := rotatedBank(sch)
		dropped := 0
		// Minimize drops a member when the rest implies it; on this bank
		// every drop is derived in system I, so the oracle's verdict
		// replays the decision sequence.
		for i := 0; i < len(cur); {
			rest := append(append([]*cind.CIND(nil), cur[:i]...), cur[i+1:]...)
			s := requireOracleFacts(t, "minimize/"+cur[i].ID, sch, rest, cur[i], Options{})
			tally(s)
			if s.goalsMet() {
				cur = append(cur[:i], cur[i+1:]...)
				dropped++
				continue
			}
			i++
		}
		if dropped != 24 {
			t.Fatalf("minimize dropped %d members, want the 24 rotated copies", dropped)
		}
	})

	t.Run("example-3.4", func(t *testing.T) {
		sch := bank.Schema()
		sigma := []*cind.CIND{bank.Psi1(sch, "EDI"), bank.Psi2(sch, "EDI"), bank.Psi5(sch), bank.Psi6(sch)}
		goal := cind.MustNew(sch, "goal", "account_EDI", []string{"at"}, nil, "interest", []string{"at"}, nil,
			[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
		if s := requireOracleFacts(t, "example-3.4", sch, sigma, goal, Options{}); !s.goalsMet() {
			t.Fatal("Example 3.4's goal must derive")
		}
	})

	t.Run("generated", func(t *testing.T) {
		budgets := []Options{{}, {MaxFacts: 60, MaxRounds: 3}, {MaxFacts: 400, MaxRounds: 2}}
		sigmas, decisions := 0, 0
		// Every fifth Σ has relations of up to 14 attributes, a0 to a13,
		// so that keys list a10 before a1: key order and attribute order
		// part ways.
		for seed := int64(1); sigmas < 60; seed++ {
			w := gen.New(gen.Config{
				Relations: 4 + int(seed%3)*3, MaxAttrs: 6 + 8*int(seed%5/4), F: 0.6, FinDomMax: 2,
				Card: 40, CFDRatio: 0.4, Consistent: seed%2 == 0, Seed: seed,
			})
			if len(w.CINDs) < 4 {
				continue
			}
			sigmas++
			k := len(w.CINDs) - 2
			sigma := w.CINDs[:k]
			goals := append(generatedGoals(w.Schema, sigma), w.CINDs[k:]...)
			for _, goal := range goals {
				for _, opts := range budgets {
					name := fmt.Sprintf("seed%d/%s/%+v", seed, goal.ID, opts)
					tally(requireOracleFacts(t, name, w.Schema, sigma, goal, opts))
					decisions++
				}
			}
		}
		t.Logf("%d generated Σ, %d decisions", sigmas, decisions)
	})

	// The inputs must exercise every rule and trip the fact cap.
	for _, r := range []string{"Σ", "CIND1", "CIND3", "CIND6", "CIND7", "CIND8"} {
		if rules[r] == 0 {
			t.Errorf("no %s fact among the compared facts (rules %v)", r, rules)
		}
	}
	if capped == 0 {
		t.Error("no compared decision stopped at MaxFacts")
	}
	t.Logf("facts by rule %v; %d decisions stopped at MaxFacts", rules, capped)
}

// generatedGoals returns two goals over sigma: the first CIND3 composition
// of two members (implied, derived in a round) and the converse of the
// first member whose converse is a valid CIND (usually not implied, so the
// engines saturate).
func generatedGoals(sch *schema.Schema, sigma []*cind.CIND) []*cind.CIND {
	var out []*cind.CIND
	normal := cind.NormalizeAll(sigma)
compose:
	for _, a := range normal {
		for _, b := range normal {
			if c, _, ok := oracleCompose(sch, canonicalize(sch, a), canonicalize(sch, b)); ok {
				c.ID = "chain_" + a.ID + "_" + b.ID
				out = append(out, c)
				break compose
			}
		}
	}
	for _, a := range normal {
		conv, err := cind.New(sch, "conv_"+a.ID, a.RHSRel, a.Y, nil, a.LHSRel, a.X, nil,
			[]cind.Row{{LHS: pattern.Wilds(len(a.Y)), RHS: pattern.Wilds(len(a.X))}})
		if err == nil {
			out = append(out, conv)
			break
		}
	}
	return out
}
