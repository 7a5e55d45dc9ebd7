package inference

import (
	"context"
	"testing"

	"cind/internal/bank"
	cind "cind/internal/core"
	"cind/internal/pattern"
)

// BenchmarkDerive times one standalone derivation, Prepare included: the
// Example 3.3 goal over the bank Σ (a multi-round proof), and a failing
// full saturation — the first rotated-bank copy Minimize keeps, against
// the seven other kept copies.
func BenchmarkDerive(b *testing.B) {
	ctx := context.Background()
	sch := bank.Schema()
	ex33 := cind.MustNew(sch, "ex33", "account_EDI", []string{"at"}, nil, "interest", []string{"at"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})
	kept := rotatedBank(sch)[24:] // the copy3 members: Minimize's cover
	cases := []struct {
		name   string
		sigma  []*cind.CIND
		goal   *cind.CIND
		proves bool
	}{
		{"goal=ex33/proof", bank.CINDs(sch), ex33, true},
		{"goal=kept-copy/saturate", kept[1:], kept[0], false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := Derive(ctx, Prepare(sch, c.sigma), c.goal, Options{}); ok != c.proves {
					b.Fatalf("derived = %v, want %v", ok, c.proves)
				}
			}
		})
	}
}
