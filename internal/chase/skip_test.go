package chase

import (
	"context"
	"testing"

	"cind/internal/cfd"
	cind "cind/internal/core"
	"cind/internal/gen"
	"cind/internal/instance"
	"cind/internal/pattern"
	"cind/internal/schema"
	"cind/internal/types"
)

// TestFDPassesSkipUnchangedRelations: on generated Σ, fdFixpoint runs
// fewer FD passes than it visits — a pass whose relation is unchanged
// since its last no-op pass is skipped — and the template still satisfies
// Σ at every fixpoint.
func TestFDPassesSkipUnchangedRelations(t *testing.T) {
	visits, passes, fixpoints := 0, 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		w := gen.New(gen.Config{Relations: 4, MaxAttrs: 5, F: 0.3, FinDomMax: 4,
			Card: 60, Consistent: true, Seed: seed})
		for _, rel := range w.Schema.Relations() {
			ch := New(w.Schema, w.CFDs, w.CINDs, Config{N: 2, TableCap: 400, InstantiateFinite: true})
			ch.SeedFreshTuple(rel.Name())
			if ch.Run() == Fixpoint {
				fixpoints++
				if !cfd.SatisfiedAll(w.CFDs, ch.DB()) || !cind.SatisfiedAll(w.CINDs, ch.DB()) {
					t.Fatalf("seed %d rel %s: fixpoint violates Σ", seed, rel.Name())
				}
			}
			if ch.fdPasses > ch.fdVisits {
				t.Fatalf("seed %d rel %s: %d passes > %d visits", seed, rel.Name(), ch.fdPasses, ch.fdVisits)
			}
			visits += ch.fdVisits
			passes += ch.fdPasses
		}
	}
	if fixpoints == 0 {
		t.Fatal("no fixpoint reached; property never exercised")
	}
	if passes >= visits {
		t.Fatalf("ran %d FD passes of %d visited: nothing skipped", passes, visits)
	}
	t.Logf("%d FD passes run of %d visited", passes, visits)
}

// skipSchema: R(A, B), S(B) with φ1: R(A → B), φ2: R(A → B, (k || d))
// and ψ: R[B] ⊆ S[B].
func skipSchema() (*schema.Schema, []*cfd.CFD, []*cind.CIND) {
	d := schema.Infinite("d")
	sch := schema.MustNew(
		schema.MustRelation("R", schema.Attribute{Name: "A", Dom: d}, schema.Attribute{Name: "B", Dom: d}),
		schema.MustRelation("S", schema.Attribute{Name: "B", Dom: d}),
	)
	phi1 := cfd.MustNew(sch, "phi1", "R", []string{"A"}, []string{"B"},
		[]cfd.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	phi2 := cfd.MustNew(sch, "phi2", "R", []string{"A"}, []string{"B"},
		[]cfd.Row{{LHS: pattern.Tup(sym("k")), RHS: pattern.Tup(sym("d"))}})
	psi := cind.MustNew(sch, "psi", "R", []string{"B"}, nil, "S", []string{"B"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	return sch, []*cfd.CFD{phi1, phi2}, []*cind.CIND{psi}
}

// TestFDSkipNeverHidesAMutation: after a fixpoint every FD pass is cached
// as a no-op; a template mutated through SubstituteVar or InsertTuple and
// chased again must reach exactly the fixpoint a fresh chaser reaches
// from the same template.
func TestFDSkipNeverHidesAMutation(t *testing.T) {
	sch, cfds, cinds := skipSchema()
	mutations := []struct {
		name   string
		mutate func(ch *Chaser, seed instance.Tuple)
	}{
		// φ2 now matches the seed and forces its B to d.
		{"substitute", func(ch *Chaser, seed instance.Tuple) {
			ch.SubstituteVar(seed[0].VarID(), types.C("k"))
		}},
		// φ1 now sees two B values for the seed's A and equates them.
		{"insert", func(ch *Chaser, seed instance.Tuple) {
			ch.InsertTuple("R", instance.Tuple{seed[0], types.C("c")})
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			ch := New(sch, cfds, cinds, Config{})
			seed := ch.SeedFreshTuple("R")
			if res := ch.RunContext(context.Background()); res != Fixpoint {
				t.Fatalf("first run: %v", res)
			}
			m.mutate(ch, seed)
			template := ch.DB().Clone()
			passes := ch.fdPasses
			if res := ch.RunContext(context.Background()); res != Fixpoint {
				t.Fatalf("second run: %v", res)
			}
			if ch.fdPasses == passes {
				t.Fatal("the mutated relation's FD passes were all skipped")
			}

			fresh := New(sch, cfds, cinds, Config{})
			for _, r := range sch.Relations() {
				for _, tu := range template.Instance(r.Name()).Tuples() {
					fresh.InsertTuple(r.Name(), tu.Clone())
				}
			}
			if res := fresh.RunContext(context.Background()); res != Fixpoint {
				t.Fatalf("fresh run: %v", res)
			}
			if got, want := ch.DB().String(), fresh.DB().String(); got != want {
				t.Fatalf("reused chaser:\n%s\nfresh chaser:\n%s", got, want)
			}
			if !cfd.SatisfiedAll(cfds, ch.DB()) || !cind.SatisfiedAll(cinds, ch.DB()) {
				t.Fatalf("fixpoint violates Σ:\n%s", ch.DB())
			}
		})
	}
}
