package exp

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"cind/internal/bank"
	"cind/internal/consistency"
	cind "cind/internal/core"
	"cind/internal/gen"
	"cind/internal/implication"
	"cind/internal/inference"
	"cind/internal/pattern"
)

// Check is one executable verification row for Tables 1 and 2. The tables
// summarise complexity results; the laptop-checkable content of each claim
// is verified by construction, and the asymptotic lower bounds are
// represented by their witnessing phenomena (e.g. the finite-domain case
// split that drives the EXPTIME bound).
type Check struct {
	Table  string
	Claim  string
	Method string
	Pass   bool
	Detail string
}

// RunTables executes every Table 1 / Table 2 verification row.
func RunTables(p Params) []Check {
	var out []Check
	out = append(out, checkTable1CINDConsistency(p))
	out = append(out, checkTable1CINDAxioms())
	out = append(out, checkTable1CINDImplicationFinite())
	out = append(out, checkTable1CFDConsistency())
	out = append(out, checkTable1CombinedUndecidable())
	out = append(out, checkTable2NoFiniteCIND16())
	out = append(out, checkTable2CFDQuadratic(p))
	return out
}

// TableSeries renders the checks.
func TableSeries(checks []Check) *Series {
	s := &Series{
		Title:   "Tables 1 & 2: executable verification of the complexity-table claims",
		Columns: []string{"table", "claim", "method", "result", "detail"},
	}
	for _, c := range checks {
		res := "PASS"
		if !c.Pass {
			res = "FAIL"
		}
		s.Rows = append(s.Rows, []string{c.Table, c.Claim, c.Method, res, c.Detail})
	}
	return s
}

// checkTable1CINDConsistency: "CINDs: consistency O(1)" — every CIND set is
// consistent; the Theorem 3.2 witness construction succeeds and satisfies Σ
// across random workloads.
func checkTable1CINDConsistency(p Params) Check {
	c := Check{Table: "1+2", Claim: "CIND consistency O(1) (always consistent)",
		Method: "Theorem 3.2 witness on random CIND sets"}
	trials, okCount := 10, 0
	for seed := int64(1); seed <= int64(trials); seed++ {
		w := gen.New(gen.Config{Relations: 4, MaxAttrs: 4, F: 0.2, Card: 25,
			CFDRatio: 0.01, Seed: seed})
		db, err := cind.Witness(w.Schema, w.CINDs, 0)
		if err == nil && !db.IsEmpty() && cind.SatisfiedAll(w.CINDs, db) {
			okCount++
		}
	}
	c.Pass = okCount == trials
	c.Detail = fmt.Sprintf("%d/%d witnesses built and verified", okCount, trials)
	return c
}

// checkTable1CINDAxioms: "CINDs: finitely axiomatizable" — the inference
// system I derives the paper's Example 3.4 goal with a replayable proof.
func checkTable1CINDAxioms() Check {
	c := Check{Table: "1", Claim: "CIND implication finitely axiomatizable",
		Method: "Example 3.4 derivation in system I"}
	sch := bank.Schema()
	sigma := []*cind.CIND{
		bank.Psi1(sch, "EDI"), bank.Psi2(sch, "EDI"), bank.Psi5(sch), bank.Psi6(sch),
	}
	goal := cind.MustNew(sch, "ex33", "account_EDI", []string{"at"}, nil,
		"interest", []string{"at"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	proof, ok := inference.Derive(context.Background(), inference.Prepare(sch, sigma), goal, inference.Options{})
	c.Pass = ok && proof != nil && len(proof.Steps) > 0
	if c.Pass {
		c.Detail = fmt.Sprintf("proof with %d steps (CIND2/3/6/8)", len(proof.Steps))
	} else {
		c.Detail = "derivation not found"
	}
	return c
}

// checkTable1CINDImplicationFinite: "CIND implication EXPTIME-complete" —
// the finite-domain case split is the executable phenomenon: implication
// that holds only because dom(at) is covered, and fails when one case is
// removed.
func checkTable1CINDImplicationFinite() Check {
	c := Check{Table: "1", Claim: "CIND implication needs finite-domain case analysis (EXPTIME driver)",
		Method: "covered vs uncovered dom(at) decision"}
	sch := bank.Schema()
	mk := func(id, v string) *cind.CIND {
		return cind.MustNew(sch, id, "account_EDI", nil, []string{"at"},
			"interest", nil, []string{"at"},
			[]cind.Row{{LHS: pattern.Tup(pattern.Sym(v)), RHS: pattern.Tup(pattern.Sym(v))}})
	}
	goal := cind.MustNew(sch, "g", "account_EDI", []string{"at"}, nil,
		"interest", []string{"at"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	full := implication.Decide(sch, []*cind.CIND{mk("s", "saving"), mk("c", "checking")}, goal, implication.Options{})
	half := implication.Decide(sch, []*cind.CIND{mk("s", "saving")}, goal, implication.Options{})
	c.Pass = full.Verdict == implication.Implied && half.Verdict == implication.NotImplied
	c.Detail = fmt.Sprintf("covered: %v, uncovered: %v", full.Verdict, half.Verdict)
	return c
}

// checkTable1CFDConsistency: "CFDs: consistency NP-complete" — executable
// side: Example 3.2 is inconsistent under a finite domain, consistent under
// an infinite one, and the chase/SAT deciders agree.
func checkTable1CFDConsistency() Check {
	c := Check{Table: "1", Claim: "CFD consistency NP-complete (finite domains create conflicts)",
		Method: "Example 3.2 under bool vs infinite dom(A)"}
	finite := exampleThreeTwo(true)
	infinite := exampleThreeTwo(false)
	c.Pass = !finite && infinite
	c.Detail = fmt.Sprintf("bool dom consistent=%v, infinite dom consistent=%v", finite, infinite)
	return c
}

func exampleThreeTwo(finiteA bool) bool {
	sch, cfds := bank.Example32(finiteA)
	rel := sch.MustRelationByName("R")
	_, okChase := consistency.CFDCheckingChase(rel, cfds, 1000, rand.New(rand.NewSource(1)))
	_, okSAT := consistency.CFDCheckingSAT(rel, cfds)
	if okChase != okSAT {
		return !okChase // disagreement would itself be a failure; surface it
	}
	return okChase
}

// checkTable1CombinedUndecidable: "CFDs+CINDs: consistency undecidable" —
// executable side: the heuristic algorithms handle Example 4.2 correctly
// (reject) while verifying consistent bank constraints (accept), i.e. they
// are sound and useful despite undecidability.
func checkTable1CombinedUndecidable() Check {
	c := Check{Table: "1+2", Claim: "CFD+CIND consistency undecidable -> heuristics (Sec 5)",
		Method: "Example 4.2 rejected, bank Σ accepted"}
	sch42, phi, psi := bank.Example42()
	bad := consistency.CheckingBool(sch42, phi, psi, consistency.Options{})
	sch := bank.Schema()
	good := consistency.CheckingBool(sch, bank.CFDs(sch), bank.CINDs(sch),
		consistency.Options{K: 40, Seed: 5})
	c.Pass = !bad && good
	c.Detail = fmt.Sprintf("Example 4.2 consistent=%v, bank consistent=%v", bad, good)
	return c
}

// checkTable2NoFiniteCIND16: "no finite domains: CIND1–CIND6 complete,
// PSPACE" — Example 3.4 must FAIL to derive once dom(at) is infinite
// (CIND7/8 have no purchase), while the chase refutes it with a
// counterexample, matching Theorem 3.5's boundary.
func checkTable2NoFiniteCIND16() Check {
	c := Check{Table: "2", Claim: "Without finite domains CIND8 is unusable; implication drops to CIND1-6",
		Method: "Example 3.4 over infinite dom(at)"}
	sch, sigma, goal := bank.Example34Infinite()
	out := implication.Decide(sch, sigma, goal, implication.Options{})
	c.Pass = out.Verdict == implication.NotImplied
	c.Detail = fmt.Sprintf("verdict=%v (finite-domain version is implied)", out.Verdict)
	return c
}

// checkTable2CFDQuadratic: "no finite domains: CFD consistency O(n²)" —
// time chase CFD_Checking on F = 0 workloads at n and 4n constraints and
// require the growth to stay polynomial (well under the n³ that a
// super-quadratic implementation would show).
func checkTable2CFDQuadratic(p Params) Check {
	c := Check{Table: "2", Claim: "CFD consistency O(n^2) without finite domains",
		Method: "runtime growth n -> 4n"}
	// Take the minimum over several repetitions: wall-clock minima are
	// robust against scheduler noise, which matters when the test suite
	// runs packages in parallel.
	run := func(card int) time.Duration {
		w := gen.New(gen.Config{Relations: 1, MaxAttrs: 10, F: 0, Card: card,
			CFDRatio: 1.0, Consistent: true, Seed: p.Seed})
		rel := w.Schema.Relations()[0]
		best := time.Duration(1<<62 - 1)
		for rep := 0; rep < 7; rep++ {
			d := timeIt(func() {
				consistency.CFDCheckingChase(rel, w.CFDs, p.KCFD, rand.New(rand.NewSource(1)))
			})
			if d < best {
				best = d
			}
		}
		return best
	}
	small := run(250)
	big := run(1000)
	ratio := float64(big) / float64(max64(1, int64(small)))
	// 4x the input: quadratic predicts ≤16x; allow slack but reject
	// explosive growth.
	c.Pass = ratio < 64
	c.Detail = fmt.Sprintf("t(250)=%v t(1000)=%v ratio=%.1fx (quadratic bound ≤16x + noise)", small, big, ratio)
	return c
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
