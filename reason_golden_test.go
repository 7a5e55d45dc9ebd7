// Golden reasoning certificates: the outcomes of the Section 3 and
// Section 5 engines — verdicts, proofs, counterexamples and witnesses —
// pinned byte for byte against testdata/reason_golden.txt, so an engine
// rewrite that claims identical output has to produce it.
//
// Regenerate (only when an output change is intended) with
//
//	go test -run TestReasonGolden -update-reason-golden .
package cind_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	cindapi "cind"

	"cind/internal/bank"
	core "cind/internal/core"
	"cind/internal/gen"
	"cind/internal/inference"
	"cind/internal/pattern"
	"cind/internal/schema"
)

var updateReasonGolden = flag.Bool("update-reason-golden", false,
	"rewrite testdata/reason_golden.txt from the current engines")

const reasonGoldenPath = "testdata/reason_golden.txt"

// rotatedBankSet is the bank Σ plus three copies of every CIND with the
// X/Y lists rotated jointly — the same semantics, derivable by CIND2 — so
// Minimize has 24 redundant members to certify.
func rotatedBankSet(t testing.TB) (*cindapi.Schema, *cindapi.ConstraintSet) {
	t.Helper()
	sch, set := bankSet(t)
	var extra []cindapi.Constraint
	for copyIdx := 1; copyIdx <= 3; copyIdx++ {
		for _, c := range set.CINDs() {
			x := append([]string(nil), c.X...)
			y := append([]string(nil), c.Y...)
			if len(x) > 1 {
				rot := copyIdx % len(x)
				x = append(x[rot:], x[:rot]...)
				y = append(y[rot:], y[:rot]...)
			}
			dup, err := cindapi.NewCIND(sch, fmt.Sprintf("%s_copy%d", c.ID, copyIdx),
				c.LHSRel, x, c.Xp, c.RHSRel, y, c.Yp, c.Rows)
			if err != nil {
				t.Fatal(err)
			}
			extra = append(extra, dup)
		}
	}
	out, err := set.Append(extra...)
	if err != nil {
		t.Fatal(err)
	}
	return sch, out
}

// renderImplication is one outcome's certificate text.
func renderImplication(out cindapi.ImplicationOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "verdict %s: %s\n", out.Verdict, out.Reason)
	if out.Proof != nil {
		b.WriteString(out.Proof.String())
	}
	if out.Counterexample != nil {
		b.WriteString("counterexample:\n" + out.Counterexample.String() + "\n")
	}
	return b.String()
}

// chainGoals returns up to limit CIND3 compositions of sigma's members: for
// a: R[X; Xp] ⊆ S[Y; Yp] and b: S[V; Vp] ⊆ T[W; Wp] with V ⊆ Y and b's Vp
// constants among a's Yp, the goal R[X'; Xp] ⊆ T[W; Wp] with X' the
// X positions V picks out. Each is implied, and only a saturation round
// derives it.
func chainGoals(sch *schema.Schema, sigma []*core.CIND, limit int) []*core.CIND {
	var out []*core.CIND
	for _, a := range sigma {
		if !a.IsNormal() {
			continue
		}
		ypA := map[string]string{}
		for i, attr := range a.Yp {
			ypA[attr] = a.YpPattern()[i].Const()
		}
	next:
		for _, b := range sigma {
			if a == b || !b.IsNormal() || a.RHSRel != b.LHSRel || len(b.X) == 0 {
				continue
			}
			var x []string
			for _, attr := range b.X {
				j := slices.Index(a.Y, attr)
				if j < 0 {
					continue next
				}
				x = append(x, a.X[j])
			}
			for i, attr := range b.Xp {
				if c, ok := ypA[attr]; !ok || c != b.XpPattern()[i].Const() {
					continue next
				}
			}
			g, err := core.New(sch, "chain_"+a.ID+"_"+b.ID, a.LHSRel, x, a.Xp, b.RHSRel, b.Y, b.Yp,
				[]core.Row{{
					LHS: append(pattern.Wilds(len(x)), a.XpPattern()...),
					RHS: append(pattern.Wilds(len(b.Y)), b.YpPattern()...),
				}})
			if err != nil {
				continue
			}
			if out = append(out, g); len(out) == limit {
				return out
			}
		}
	}
	return out
}

// goldenConfigs are the generated workloads the ImplyAll and Checking
// cases run over.
func goldenConfigs(cards []int) []gen.Config {
	var out []gen.Config
	for _, rels := range []int{5, 10, 20} {
		for _, card := range cards {
			for _, consistent := range []bool{true, false} {
				out = append(out, gen.Config{Relations: rels, Card: card, Consistent: consistent, Seed: 1})
			}
		}
	}
	return out
}

func configKey(c gen.Config) string {
	mode := "random"
	if c.Consistent {
		mode = "consistent"
	}
	return fmt.Sprintf("r%d-c%d-%s", c.Relations, c.Card, mode)
}

// goldenCase is one pinned outcome; full cases are written out in the
// golden file as well as hashed.
type goldenCase struct {
	key  string
	text string
	full bool
}

func reasonGoldenCases(t *testing.T) []goldenCase {
	ctx := context.Background()
	var cases []goldenCase

	// Minimize on the rotated bank: kept ids plus every drop certificate.
	sch, set := rotatedBankSet(t)
	res, err := set.Minimize(ctx, cindapi.ImplicationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, c := range res.Set.Constraints() {
		fmt.Fprintf(&b, "kept %s\n", constraintID(c))
	}
	for _, d := range res.Dropped {
		fmt.Fprintf(&b, "dropped #%d %s\n", d.Index, d.CIND.ID)
		b.WriteString(renderImplication(d.Outcome))
	}
	cases = append(cases, goldenCase{key: "minimize/bank-rotated", text: b.String(), full: true})

	// Example 3.3's goal, derived with a multi-round proof, and its
	// converse, refuted by a counterexample.
	ex33 := core.MustNew(sch, "ex33", "account_EDI", []string{"at"}, nil, "interest", []string{"at"}, nil,
		[]core.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	conv := core.MustNew(sch, "conv", "interest", []string{"ab"}, nil, "saving", []string{"ab"}, nil,
		[]core.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	outs, err := cindapi.ImplyAll(ctx, sch, bank.CINDs(sch), []*core.CIND{ex33, conv}, cindapi.ImplicationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	for _, out := range outs {
		b.WriteString(renderImplication(out))
	}
	cases = append(cases, goldenCase{key: "implyall/bank-ex33", text: b.String(), full: true})

	// ImplyAll over generated Σ: all but the last four CINDs decide those
	// four and up to four compositions of the rest, under the default
	// budget and under a budget small enough to trip the fact cap.
	budgets := []struct {
		name string
		opts cindapi.ImplicationOptions
	}{
		{"default", cindapi.ImplicationOptions{}},
		{"capped", cindapi.ImplicationOptions{Inference: inference.Options{MaxFacts: 50, MaxRounds: 2}}},
	}
	for _, cfg := range goldenConfigs([]int{50, 200}) {
		w := gen.New(cfg)
		k := len(w.CINDs) - 4
		sigma := w.CINDs[:k]
		goals := append(append([]*core.CIND(nil), w.CINDs[k:]...), chainGoals(w.Schema, sigma, 4)...)
		for _, bud := range budgets {
			outs, err := cindapi.ImplyAll(ctx, w.Schema, sigma, goals, bud.opts)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for i, out := range outs {
				fmt.Fprintf(&b, "goal %s\n", goals[i].ID)
				b.WriteString(renderImplication(out))
			}
			cases = append(cases, goldenCase{key: "implyall/" + configKey(cfg) + "/" + bud.name, text: b.String()})
		}
	}

	// Checking (Figure 9) at three seeds, sequential and fanned out.
	for _, cfg := range goldenConfigs([]int{50, 200, 2000}) {
		w := gen.New(cfg)
		for seed := int64(1); seed <= 3; seed++ {
			for _, par := range []int{1, 0} {
				ans, err := cindapi.CheckConsistencyContext(ctx, w.Schema, w.CFDs, w.CINDs,
					cindapi.CheckOptions{Seed: seed, Parallel: par})
				if err != nil {
					t.Fatal(err)
				}
				text := fmt.Sprintf("consistent %v\n", ans.Consistent)
				if ans.Witness != nil {
					text += ans.Witness.String() + "\n"
				}
				cases = append(cases, goldenCase{
					key:  fmt.Sprintf("checking/%s/seed%d/par%d", configKey(cfg), seed, par),
					text: text,
				})
			}
		}
	}
	return cases
}

// renderReasonGolden lays the cases out one line each — key and SHA-256 of
// the rendered outcome — with full cases followed by their text, every
// line indented by a tab.
func renderReasonGolden(cases []goldenCase) string {
	var b strings.Builder
	for _, c := range cases {
		fmt.Fprintf(&b, "%s sha256:%x\n", c.key, sha256.Sum256([]byte(c.text)))
		if c.full {
			for _, line := range strings.Split(strings.TrimSuffix(c.text, "\n"), "\n") {
				b.WriteString("\t" + line + "\n")
			}
		}
	}
	return b.String()
}

// TestReasonGolden: Minimize, ImplyAll and Checking reproduce the golden
// certificates exactly.
func TestReasonGolden(t *testing.T) {
	got := renderReasonGolden(reasonGoldenCases(t))
	if *updateReasonGolden {
		if err := os.WriteFile(reasonGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(reasonGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", reasonGoldenPath, i+1, g, w)
		}
	}
}
