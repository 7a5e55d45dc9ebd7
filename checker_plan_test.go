// Tests for the Checker's resident detection plan: reads before the first
// Apply reuse the coded relations while the database is unchanged, and see
// every direct write to it.
package cind_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	cindapi "cind"

	"cind/internal/bank"
	"cind/internal/types"
)

// reportLines renders a report one violation per line, in report order.
func reportLines(rep *cindapi.Report) []string {
	var out []string
	for _, v := range rep.Violations() {
		out = append(out, v.String())
	}
	return out
}

// TestCheckerPlanFollowsDirectWrites mutates the database behind a
// pre-session Checker between reads — an insert, a delete, and a variable
// substitution that rewrites a tuple in place and merges it into another.
// After each write the Checker's report must equal a fresh Checker's,
// violation for violation, and differ from the previous report, so a plan
// kept past a write cannot pass.
func TestCheckerPlanFollowsDirectWrites(t *testing.T) {
	ctx := context.Background()
	sch, set := bankSet(t)
	db := bank.Data(sch)
	// Unmatched in checking until the variable becomes "G. King": then the
	// tuple merges into account_NYC's own G. King tuple.
	db.Insert("account_NYC", cindapi.Tuple{types.C("02"), types.NewVar(5, "v"),
		types.C("NYC, 19022"), types.C("212-3963455"), types.C("checking")})
	chk, err := cindapi.NewChecker(db, set)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name  string
		write func()
	}{
		{"initial", func() {}},
		{"insert", func() {
			db.Insert("checking", cindapi.Consts("03", "J. Leigh", "NYC, 02284", "212-5679844", "NYC"))
		}},
		{"delete", func() {
			db.Delete("interest", cindapi.Consts("EDI", "UK", "checking", "10.5%"))
		}},
		{"substitute", func() {
			n := db.Instance("account_NYC").Len()
			db.SubstituteVar(5, types.C("G. King"))
			if db.Instance("account_NYC").Len() != n-1 {
				t.Fatal("substitution did not merge the tuple")
			}
		}},
	}
	var prev string
	for _, st := range steps {
		st.write()
		rep, err := chk.Detect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Join(reportLines(rep), "\n")
		if want := strings.Join(reportLines(detectAll(t, db, set)), "\n"); got != want {
			t.Fatalf("%s: checker report diverges from a fresh checker's:\n--- fresh\n%s\n--- checker\n%s", st.name, want, got)
		}
		if got == prev {
			t.Fatalf("%s: the write left the report unchanged; the step proves nothing", st.name)
		}
		prev = got
	}
}

// TestCheckerColdConcurrentReaders starts eight readers on one new Checker
// at once, half Detect and half Violations, so they race to build the
// resident plan. Every result must equal every other, in order: the stream
// is the report at any worker count.
func TestCheckerColdConcurrentReaders(t *testing.T) {
	ctx := context.Background()
	for _, par := range []int{1, 4} {
		set, db := genWorkloadSet(t, 21)
		chk, err := cindapi.NewChecker(db, set, cindapi.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]string, 8)
		var wg sync.WaitGroup
		for r := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if r%2 == 0 {
					rep, err := chk.Detect(ctx)
					if err != nil {
						t.Error(err)
						return
					}
					results[r] = reportLines(rep)
					return
				}
				for v, err := range chk.Violations(ctx) {
					if err != nil {
						t.Error(err)
						return
					}
					results[r] = append(results[r], v.String())
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if len(results[0]) == 0 {
			t.Fatal("workload is clean; the test would prove nothing")
		}
		for r := 1; r < len(results); r++ {
			if strings.Join(results[r], "\n") != strings.Join(results[0], "\n") {
				t.Fatalf("parallel %d: reader %d disagrees with reader 0", par, r)
			}
		}
	}
}
