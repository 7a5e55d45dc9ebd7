package main

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"cind/internal/stream"
)

// csvAll renders every relation of a bank dataset, as the server receives
// it.
func csvAll(d *dataset) map[string]string {
	sch := bankSet().Schema()
	out := map[string]string{}
	for _, rel := range sch.Relations() {
		out[rel.Name()] = string(d.csv(sch, rel.Name()))
	}
	return out
}

// TestGeneratorsSeedDeterministic: the same seed gives byte-identical CSV,
// delta batches and spec text; another seed gives different ones.
func TestGeneratorsSeedDeterministic(t *testing.T) {
	type gen func(seed int64) any
	bankGen := func(f func(int64) *dataset) gen {
		return func(seed int64) any { d := f(seed); return []any{d.spec, csvAll(d)} }
	}
	for _, tc := range []struct {
		name string
		gen  gen
	}{
		{"scan-clean bank", bankGen(cleanBank)},
		{"dense bank", bankGen(denseBank)},
		{"churn base and script", func(seed int64) any {
			d, script := churnInputs(seed, 64)
			bodies := make([]string, len(script))
			for i, b := range script {
				bodies[i] = string(deltaBody(b))
			}
			return []any{d.spec, csvAll(d), bodies}
		}},
		{"replay script", func(seed int64) any {
			return newChurn(seed, denseBank(1).rows["checking"]).script(64)
		}},
		{"redundant bank", bankGen(redundantBank)},
		{"implication goals", func(seed int64) any { return goalsText(seed) }},
		{"Fig 11(b) spec", func(seed int64) any { return fig11Spec(seed) }},
	} {
		a, b, c := tc.gen(7), tc.gen(7), tc.gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", tc.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", tc.name)
		}
	}
}

// TestSeedsShareStructure: the seed changes values, not the work — every
// seed yields the same tuple and violation counts, so runs on different
// seeds measure the same amount of work.
func TestSeedsShareStructure(t *testing.T) {
	for _, tc := range []struct {
		name string
		data func(int64) *dataset
		want int
	}{
		{"scan-clean", cleanBank, 75},
		{"dense", denseBank, denseGroups * denseGroupSize * (denseGroupSize - 1) / 2},
		{"reason bank", redundantBank, -1},
	} {
		var counts []int
		var sizes []int
		for _, seed := range []int64{1, 2, 3} {
			d := tc.data(seed)
			got, err := expected(d)
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, got.N)
			n := 0
			for _, rs := range d.rows {
				n += len(rs)
			}
			sizes = append(sizes, n)
		}
		if counts[0] != counts[1] || counts[1] != counts[2] || sizes[0] != sizes[1] || sizes[1] != sizes[2] {
			t.Errorf("%s: violations %v and tuples %v differ across seeds", tc.name, counts, sizes)
		}
		if tc.want >= 0 && counts[0] != tc.want {
			t.Errorf("%s: %d violations, want %d", tc.name, counts[0], tc.want)
		}
	}
}

// TestChurnKeepsSize: every batch inserts fresh rows and deletes live ones,
// so the checking relation keeps its size.
func TestChurnKeepsSize(t *testing.T) {
	d, script := churnInputs(3, 3000)
	live := map[string]bool{}
	for _, r := range d.rows["checking"] {
		live[key(r)] = true
	}
	for i, batch := range script {
		for _, dl := range batch {
			k := key(dl.tuple)
			if dl.insert == live[k] {
				t.Fatalf("batch %d: %v of %v, live=%v", i, dl.insert, dl.tuple, live[k])
			}
			live[k] = dl.insert
			if !dl.insert {
				delete(live, k)
			}
		}
		if len(live) != churnBase {
			t.Fatalf("after batch %d the relation holds %d rows, want %d", i, len(live), churnBase)
		}
	}
}

func key(t []string) string {
	s := ""
	for _, v := range t {
		s += v + "\x00"
	}
	return s
}

func TestDigestOrderInsensitive(t *testing.T) {
	vs := []stream.Violation{
		{Kind: "cfd", Constraint: "phi2", Relation: "checking", Row: 0, Witness: [][]string{{"a", "b"}, {"a", "c"}}},
		{Kind: "cind", Constraint: "psi4", Relation: "checking", Row: 0, Witness: [][]string{{"x"}}},
		{Kind: "cind", Constraint: "psi4", Relation: "checking", Row: 1, Witness: [][]string{{"x"}}},
		{Kind: "cind", Constraint: "psi6", Relation: "checking", Row: 0, Witness: [][]string{{"y"}}},
	}
	want := digestOf(vs)
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20; i++ {
		shuffled := append([]stream.Violation(nil), vs...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := digestOf(shuffled); got != want {
			t.Fatalf("shuffle %d: digest %v, want %v", i, got, want)
		}
	}
	for name, other := range map[string][]stream.Violation{
		"a value changed":      {vs[0], vs[1], vs[2], {Kind: "cind", Constraint: "psi6", Relation: "checking", Witness: [][]string{{"z"}}}},
		"values moved between": {vs[0], vs[1], vs[2], {Kind: "cind", Constraint: "psi6", Relation: "checking", Witness: [][]string{{"y", ""}}}},
		"one repeated":         {vs[0], vs[1], vs[1], vs[3]},
		"one dropped":          vs[:3],
	} {
		if digestOf(other) == want {
			t.Errorf("%s: digest did not change", name)
		}
	}
}
