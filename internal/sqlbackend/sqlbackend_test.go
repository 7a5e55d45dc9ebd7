// Differential suite: the SQL backend must reproduce the in-memory
// engine's report violation for violation, in report order, on the bank
// running example and generated workloads, clean and dirty, including
// limits, NULL-bearing data, quoted identifiers and re-sync after
// mutation.
package sqlbackend

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cind/internal/bank"
	"cind/internal/cfd"
	cind "cind/internal/core"
	"cind/internal/detect"
	"cind/internal/gen"
	"cind/internal/instance"
	"cind/internal/memdb"
	"cind/internal/pattern"
	"cind/internal/schema"
	"cind/internal/types"
)

func newBackend(t *testing.T) *Backend {
	t.Helper()
	db, err := Open("mem:")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return New(db)
}

// assertSameReport asserts SQL and in-memory reports are identical
// violation for violation, in order. Violations referencing the same
// constraints and tuples of the same database render identically, so the
// rendered report is a faithful equality check; counts are compared first
// for a readable failure.
func assertSameReport(t *testing.T, got, want *detect.Report) {
	t.Helper()
	if got.Total() != want.Total() {
		t.Fatalf("SQL backend found %d violations, in-memory engine %d\nsql:\n%s\nmemory:\n%s",
			got.Total(), want.Total(), got, want)
	}
	if len(got.CFD) != len(want.CFD) {
		t.Fatalf("CFD violations: %d vs %d", len(got.CFD), len(want.CFD))
	}
	for i := range want.CFD {
		g, w := got.CFD[i], want.CFD[i]
		if g.CFD != w.CFD || g.RowIdx != w.RowIdx || !g.T1.Eq(w.T1) || !g.T2.Eq(w.T2) {
			t.Fatalf("CFD violation %d differs:\n got: %v\nwant: %v", i, g, w)
		}
	}
	for i := range want.CIND {
		g, w := got.CIND[i], want.CIND[i]
		if g.CIND != w.CIND || g.RowIdx != w.RowIdx || !g.T.Eq(w.T) {
			t.Fatalf("CIND violation %d differs:\n got: %v\nwant: %v", i, g, w)
		}
	}
	if got.String() != want.String() {
		t.Fatalf("rendered reports differ:\nsql:\n%s\nmemory:\n%s", got, want)
	}
}

func detectBoth(t *testing.T, b *Backend, db *instance.Database, cfds []*cfd.CFD, cinds []*cind.CIND) (*detect.Report, *detect.Report) {
	t.Helper()
	got, err := b.Detect(context.Background(), db, cfds, cinds, 0)
	if err != nil {
		t.Fatal(err)
	}
	return got, detect.Run(db, cfds, cinds, detect.Options{})
}

func TestDifferentialBank(t *testing.T) {
	sch := bank.Schema()
	cfds, cinds := bank.CFDs(sch), bank.CINDs(sch)
	for _, tc := range []struct {
		name string
		db   *instance.Database
	}{
		{"dirty", bank.Data(sch)},
		{"clean", bank.CleanData(sch)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := detectBoth(t, newBackend(t), tc.db, cfds, cinds)
			assertSameReport(t, got, want)
			if tc.name == "clean" && !got.Clean() {
				t.Fatalf("clean bank data reported %d violations", got.Total())
			}
			if tc.name == "dirty" && got.Clean() {
				t.Fatal("dirty bank data reported clean")
			}
		})
	}
}

// dirtyWitness plants violations of both kinds in a workload's witness:
// per CFD an X-equal Y-unequal clone, per CIND RHS deletions stranding
// LHS demands.
func dirtyWitness(w *gen.Workload) *instance.Database {
	db := w.Witness.Clone()
	for i, c := range w.CFDs {
		if i >= 6 {
			break
		}
		in := db.Instance(c.Rel)
		ycol := in.Relation().Cols(c.Y)[0]
		tuples := in.Tuples()
		for i := 0; i < len(tuples) && i < 8; i++ {
			t := tuples[i]
			inserted := false
			for j := range tuples {
				if !tuples[j][ycol].Eq(t[ycol]) {
					mut := t.Clone()
					mut[ycol] = tuples[j][ycol]
					in.Insert(mut)
					inserted = true
					break
				}
			}
			if inserted {
				break
			}
		}
	}
	for i, c := range w.CINDs {
		if i >= 6 {
			break
		}
		in := db.Instance(c.RHSRel)
		for j := 0; j < 4 && in.Len() > 0; j++ {
			in.Delete(in.Tuples()[0])
		}
	}
	return db
}

func TestDifferentialGenerated(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := gen.New(gen.Config{Relations: 8, Card: 120, Consistent: true, Seed: seed})
			t.Run("clean", func(t *testing.T) {
				got, want := detectBoth(t, newBackend(t), w.Witness, w.CFDs, w.CINDs)
				assertSameReport(t, got, want)
			})
			t.Run("dirty", func(t *testing.T) {
				db := dirtyWitness(w)
				got, want := detectBoth(t, newBackend(t), db, w.CFDs, w.CINDs)
				assertSameReport(t, got, want)
				if got.Clean() {
					t.Fatal("dirtied witness reported clean")
				}
			})
		})
	}
}

// TestLimitIsUnlimitedPrefix: with a limit, the backend returns exactly
// the first n violations of the unlimited run — the contract WithLimit
// and ?limit= rely on.
func TestLimitIsUnlimitedPrefix(t *testing.T) {
	w := gen.New(gen.Config{Relations: 8, Card: 120, Consistent: true, Seed: 3})
	db := dirtyWitness(w)
	b := newBackend(t)
	full, err := b.Detect(context.Background(), db, w.CFDs, w.CINDs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Total() < 3 {
		t.Fatalf("workload too clean for the limit test: %d violations", full.Total())
	}
	for _, limit := range []int{1, 2, full.Total() - 1, full.Total(), full.Total() + 10} {
		got, err := b.Detect(context.Background(), db, w.CFDs, w.CINDs, limit)
		if err != nil {
			t.Fatal(err)
		}
		assertSameReport(t, got, full.Truncate(limit))
	}
}

// nullDB builds a fixture where the engine's empty-string value (SQL
// NULL) drives every violation: a group whose Y values are {v, ""}, a
// tuple whose Y is "" failing a constant, and a CIND whose match exists
// only via NULL = NULL.
func nullFixture(t *testing.T) (*schema.Schema, *instance.Database, []*cfd.CFD, []*cind.CIND) {
	t.Helper()
	str := func(n string) schema.Attribute {
		return schema.Attribute{Name: n, Dom: schema.Infinite("string")}
	}
	sch := schema.MustNew(
		schema.MustRelation("r", str("x"), str("y")),
		schema.MustRelation("s", str("a")),
	)
	db := instance.NewDatabase(sch)
	for _, row := range [][]string{
		{"g1", "v"}, {"g1", ""}, // wildcard-RHS pair violation via NULL
		{"g2", ""}, // constant-RHS single violation via NULL
		{"", "v"},  // NULL X-group; also CIND LHS matched via NULL
		{"k", "v"}, // CIND LHS with no RHS match
	} {
		db.Instance("r").InsertConsts(row...)
	}
	db.Instance("s").InsertConsts("")
	cfds := []*cfd.CFD{
		cfd.MustNew(sch, "wild", "r", []string{"x"}, []string{"y"},
			[]cfd.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}}),
		cfd.MustNew(sch, "const", "r", []string{"x"}, []string{"y"},
			[]cfd.Row{{LHS: pattern.Tup(pattern.Sym("g2")), RHS: pattern.Tup(pattern.Sym("v"))}}),
	}
	cinds := []*cind.CIND{
		cind.MustNew(sch, "incl", "r", []string{"x"}, nil, "s", []string{"a"}, nil,
			[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}}),
	}
	return sch, db, cfds, cinds
}

func TestDifferentialNullValues(t *testing.T) {
	_, db, cfds, cinds := nullFixture(t)
	got, want := detectBoth(t, newBackend(t), db, cfds, cinds)
	assertSameReport(t, got, want)
	// The fixture is built so NULL semantics decide each constraint: the
	// wild CFD catches the {v, ""} group, the const CFD the "" value, and
	// the CIND excuses exactly the "" tuple ("" matches the NULL s-tuple)
	// while reporting the non-empty LHS values.
	if len(want.CFD) != 2 || len(want.CIND) != 4 {
		t.Fatalf("fixture lost its NULL-driven violations: %v", want)
	}
	for _, v := range want.CIND {
		if v.T[0].Str() == "" {
			t.Fatalf("the NULL LHS tuple %v was reported despite its NULL match", v.T)
		}
	}
}

// TestDifferentialQuoting runs the backend over identifiers embedding
// double quotes and values embedding single quotes, end to end.
func TestDifferentialQuoting(t *testing.T) {
	str := func(n string) schema.Attribute {
		return schema.Attribute{Name: n, Dom: schema.Infinite("string")}
	}
	sch := schema.MustNew(
		schema.MustRelation(`we"ird`, str(`co"l`), str("v")),
		schema.MustRelation(`o'ther`, str("a")),
	)
	db := instance.NewDatabase(sch)
	db.Instance(`we"ird`).InsertConsts("O'Hare", "x")
	db.Instance(`we"ird`).InsertConsts("O'Hare", "y")
	db.Instance(`o'ther`).InsertConsts(`quo"te`)
	cfds := []*cfd.CFD{cfd.MustNew(sch, "q", `we"ird`, []string{`co"l`}, []string{"v"},
		[]cfd.Row{{LHS: pattern.Tup(pattern.Sym("O'Hare")), RHS: pattern.Wilds(1)}})}
	cinds := []*cind.CIND{cind.MustNew(sch, "i", `we"ird`, []string{`co"l`}, nil,
		`o'ther`, []string{"a"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})}
	got, want := detectBoth(t, newBackend(t), db, cfds, cinds)
	assertSameReport(t, got, want)
	if len(want.CFD) != 1 || len(want.CIND) != 2 {
		t.Fatalf("quoting fixture found %d/%d violations, want 1 CFD pair and 2 CIND", len(want.CFD), len(want.CIND))
	}
}

// TestResyncAfterMutation: a second Detect after Insert/Delete must see
// the new contents (Version-driven re-ingest), and an unchanged database
// must not be re-ingested (same report, trivially — asserted via the
// differential check again).
func TestResyncAfterMutation(t *testing.T) {
	sch := bank.Schema()
	db := bank.Data(sch)
	cfds, cinds := bank.CFDs(sch), bank.CINDs(sch)
	b := newBackend(t)
	got, want := detectBoth(t, b, db, cfds, cinds)
	assertSameReport(t, got, want)

	// Unchanged: served off the existing mirror.
	got2, err := b.Detect(context.Background(), db, cfds, cinds, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, got2, want)

	// Mutate: clear the interest relation, stranding every CIND demand on
	// it, then re-detect differentially.
	interest := db.Instance("interest")
	for interest.Len() > 0 {
		interest.Delete(interest.Tuples()[0])
	}
	got3, want3 := detectBoth(t, b, db, cfds, cinds)
	assertSameReport(t, got3, want3)
	if want3.Total() <= want.Total() {
		t.Fatalf("clearing interest should add violations: %d -> %d", want.Total(), want3.Total())
	}
}

func TestContextCancellation(t *testing.T) {
	sch := bank.Schema()
	db := bank.Data(sch)
	b := newBackend(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Detect(ctx, db, bank.CFDs(sch), bank.CINDs(sch), 0); err == nil {
		t.Fatal("cancelled Detect succeeded")
	}
}

func TestGroundDataRequired(t *testing.T) {
	str := schema.Attribute{Name: "a", Dom: schema.Infinite("string")}
	sch := schema.MustNew(schema.MustRelation("r", str))
	db := instance.NewDatabase(sch)
	db.Instance("r").Insert(instance.Tuple{types.NewVar(1, "x")})
	b := newBackend(t)
	_, err := b.Detect(context.Background(), db, nil, nil, 0)
	if err == nil || !strings.Contains(err.Error(), "ground") {
		t.Fatalf("variable data error = %v, want ground-data rejection", err)
	}
}

func TestReservedColumnRejected(t *testing.T) {
	attr := schema.Attribute{Name: SeqColumn, Dom: schema.Infinite("string")}
	sch := schema.MustNew(schema.MustRelation("r", attr))
	db := instance.NewDatabase(sch)
	b := newBackend(t)
	if _, err := b.Detect(context.Background(), db, nil, nil, 0); err == nil {
		t.Fatal("reserved column accepted")
	}
}

func TestOpen(t *testing.T) {
	for _, spec := range []string{"", "mem", "nosuchdriver:x"} {
		if db, err := Open(spec); err == nil {
			db.Close()
			t.Errorf("Open(%q) succeeded", spec)
		}
	}
	if _, err := Open("nosuchdriver:x"); err == nil || !strings.Contains(err.Error(), memdb.DriverName) {
		t.Errorf("unknown-driver error should list registered drivers, got %v", err)
	}
	// Two empty-DSN opens of the embedded engine are isolated.
	db1, err := Open("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()
	db2, err := Open("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db1.Exec(`CREATE TABLE "t" ("a" TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Exec(`CREATE TABLE "t" ("a" TEXT)`); err != nil {
		t.Fatalf("empty-DSN opens share state: %v", err)
	}
	// Named DSNs are shared.
	db3, err := Open("mem:shared-open-test")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db3.Close(); memdb.Purge("shared-open-test") }()
	db4, err := Open("mem:shared-open-test")
	if err != nil {
		t.Fatal(err)
	}
	defer db4.Close()
	if _, err := db3.Exec(`CREATE TABLE "t" ("a" TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db4.Exec(`CREATE TABLE "t" ("a" TEXT)`); err == nil {
		t.Fatal("named DSN opens are unexpectedly isolated")
	}
}

// TestStaleMirrorDetected: a mirror row whose seq falls outside the source
// instance is corruption (something wrote to the backend database behind
// the Backend's back); both reconstruction paths refuse it instead of
// indexing out of range or reporting a tuple that does not exist.
func TestStaleMirrorDetected(t *testing.T) {
	str := func(n string) schema.Attribute {
		return schema.Attribute{Name: n, Dom: schema.Infinite("string")}
	}
	sch := schema.MustNew(
		schema.MustRelation("r", str("x"), str("y")),
		schema.MustRelation("s", str("a")),
	)
	db := instance.NewDatabase(sch)
	db.Instance("r").InsertConsts("g", "v")
	db.Instance("r").InsertConsts("g", "w")
	cfds := []*cfd.CFD{cfd.MustNew(sch, "c", "r", []string{"x"}, []string{"y"},
		[]cfd.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})}
	cinds := []*cind.CIND{cind.MustNew(sch, "i", "r", []string{"x"}, nil,
		"s", []string{"a"}, nil,
		[]cind.Row{{LHS: pattern.Wilds(1), RHS: pattern.Wilds(1)}})}
	b := newBackend(t)
	if _, err := b.Detect(context.Background(), db, cfds, cinds, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt the mirror directly: an extra violating row with a seq the
	// instance does not have. The instance is unchanged, so no Version
	// bump triggers the re-ingest that would repair it.
	if _, err := b.DB().Exec(`INSERT INTO "r" VALUES (?, ?, ?)`, "g", "zzz", 999); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Detect(context.Background(), db, cfds, nil, 0); err == nil || !strings.Contains(err.Error(), "stale mirror") {
		t.Fatalf("CFD path accepted the stale mirror: %v", err)
	}
	if _, err := b.Detect(context.Background(), db, nil, cinds, 0); err == nil || !strings.Contains(err.Error(), "stale mirror") {
		t.Fatalf("CIND path accepted the stale mirror: %v", err)
	}
}

// TestMultiRowMultiYCFD covers the component-union reconstruction: a CFD
// with several pattern rows and a composite RHS, where different
// components flag different groups.
func TestMultiRowMultiYCFD(t *testing.T) {
	str := func(n string) schema.Attribute {
		return schema.Attribute{Name: n, Dom: schema.Infinite("string")}
	}
	sch := schema.MustNew(schema.MustRelation("r", str("x"), str("y1"), str("y2")))
	db := instance.NewDatabase(sch)
	for _, row := range [][]string{
		{"a", "p", "q"}, {"a", "p", "r"}, // y2 differs: wild component fires
		{"b", "p", "q"}, {"b", "p", "q"}, // duplicate collapses: clean
		{"c", "z", "q"}, // fails the const row below
		{"d", "p", "q"},
	} {
		db.Instance("r").InsertConsts(row...)
	}
	cfds := []*cfd.CFD{cfd.MustNew(sch, "multi", "r", []string{"x"}, []string{"y1", "y2"},
		[]cfd.Row{
			{LHS: pattern.Wilds(1), RHS: pattern.Wilds(2)},
			{LHS: pattern.Tup(pattern.Sym("c")), RHS: pattern.Tup(pattern.Sym("p"), pattern.Wild)},
		})}
	got, want := detectBoth(t, newBackend(t), db, cfds, nil)
	assertSameReport(t, got, want)
	if len(want.CFD) == 0 {
		t.Fatal("multi-row fixture found no violations")
	}
}

// TestEmptyXCFD covers the degenerate implicit-group path on both RHS
// kinds.
func TestEmptyXCFD(t *testing.T) {
	str := func(n string) schema.Attribute {
		return schema.Attribute{Name: n, Dom: schema.Infinite("string")}
	}
	sch := schema.MustNew(schema.MustRelation("r", str("y")))
	db := instance.NewDatabase(sch)
	db.Instance("r").InsertConsts("v")
	db.Instance("r").InsertConsts("w")
	cfds := []*cfd.CFD{
		cfd.MustNew(sch, "allequal", "r", nil, []string{"y"},
			[]cfd.Row{{LHS: pattern.Tup(), RHS: pattern.Wilds(1)}}),
		cfd.MustNew(sch, "allv", "r", nil, []string{"y"},
			[]cfd.Row{{LHS: pattern.Tup(), RHS: pattern.Tup(pattern.Sym("v"))}}),
	}
	got, want := detectBoth(t, newBackend(t), db, cfds, nil)
	assertSameReport(t, got, want)
	if len(want.CFD) == 0 {
		t.Fatal("empty-X fixture found no violations")
	}
}
