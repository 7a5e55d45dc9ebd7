package memdb

import (
	"context"
	"database/sql"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

var dsnSeq int

func open(t *testing.T) *sql.DB {
	t.Helper()
	dsnSeq++
	dsn := fmt.Sprintf("test-%s-%d", t.Name(), dsnSeq)
	db, err := sql.Open(DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close(); Purge(dsn) })
	return db
}

func mustExec(t *testing.T, db *sql.DB, q string, args ...any) {
	t.Helper()
	if _, err := db.Exec(q, args...); err != nil {
		t.Fatalf("exec %s: %v", q, err)
	}
}

// queryAll scans every row into strings, with NULL rendered as "<null>"
// and integers via their decimal form.
func queryAll(t *testing.T, db *sql.DB, q string, args ...any) [][]string {
	t.Helper()
	rows, err := db.Query(q, args...)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for rows.Next() {
		vals := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		rec := make([]string, len(cols))
		for i, v := range vals {
			switch x := v.(type) {
			case nil:
				rec[i] = "<null>"
			case []byte:
				rec[i] = string(x)
			default:
				rec[i] = fmt.Sprint(x)
			}
		}
		out = append(out, rec)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func seed(t *testing.T, db *sql.DB) {
	mustExec(t, db, `CREATE TABLE "acct" ("ab" TEXT, "an" TEXT, "bal" TEXT, "seq" INTEGER)`)
	mustExec(t, db, `INSERT INTO "acct" VALUES ('NYC', 'a1', '100', 0), ('NYC', 'a2', '200', 1), ('EDI', 'a3', '100', 2)`)
}

func TestCreateInsertSelect(t *testing.T) {
	db := open(t)
	seed(t, db)
	got := queryAll(t, db, `SELECT t."an" FROM "acct" t WHERE t."ab" = 'NYC' ORDER BY t."seq" DESC`)
	want := [][]string{{"a2"}, {"a1"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestStarSelect(t *testing.T) {
	db := open(t)
	seed(t, db)
	got := queryAll(t, db, `SELECT t.* FROM "acct" t WHERE t."an" = 'a3'`)
	want := [][]string{{"EDI", "a3", "100", "2"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestParamsAndNullSafeEquality(t *testing.T) {
	db := open(t)
	mustExec(t, db, `CREATE TABLE "r" ("a" TEXT, "seq" INTEGER)`)
	mustExec(t, db, `INSERT INTO "r" VALUES (?, 0), (?, 1), ('x', 2)`, "x", nil)
	// The sqlgen null-safe member-fetch shape: each value bound twice.
	q := `SELECT "r"."seq" FROM "r" WHERE ("r"."a" = ? OR ("r"."a" IS NULL AND ? IS NULL)) ORDER BY "r"."seq"`
	if got := queryAll(t, db, q, "x", "x"); !reflect.DeepEqual(got, [][]string{{"0"}, {"2"}}) {
		t.Fatalf("const probe: %v", got)
	}
	if got := queryAll(t, db, q, nil, nil); !reflect.DeepEqual(got, [][]string{{"1"}}) {
		t.Fatalf("null probe: %v", got)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	db := open(t)
	mustExec(t, db, `CREATE TABLE "r" ("a" TEXT)`)
	mustExec(t, db, `INSERT INTO "r" VALUES ('x'), (NULL)`)
	// A bare <> silently drops the NULL row (the sqlgen bug this engine
	// exists to demonstrate)…
	if got := queryAll(t, db, `SELECT "r"."a" FROM "r" WHERE "r"."a" <> 'y'`); len(got) != 1 {
		t.Fatalf("bare <> matched %v", got)
	}
	// …and the IS NULL arm restores it.
	got := queryAll(t, db, `SELECT "r"."a" FROM "r" WHERE "r"."a" <> 'y' OR "r"."a" IS NULL`)
	if len(got) != 2 {
		t.Fatalf("null-aware <> matched %v", got)
	}
	// false AND unknown = false, true OR unknown = true (Kleene).
	if got := queryAll(t, db, `SELECT "r"."a" FROM "r" WHERE 1 = 2 AND "r"."a" = 'x'`); len(got) != 0 {
		t.Fatalf("false AND unknown: %v", got)
	}
	if got := queryAll(t, db, `SELECT "r"."a" FROM "r" WHERE 1 = 1 OR "r"."a" = 'zz'`); len(got) != 2 {
		t.Fatalf("true OR unknown: %v", got)
	}
	// NOT unknown = unknown: the NULL row never passes.
	if got := queryAll(t, db, `SELECT "r"."a" FROM "r" WHERE NOT ("r"."a" = 'x')`); len(got) != 0 {
		t.Fatalf("NOT unknown: %v", got)
	}
}

func TestGroupByHavingNullAdjustedCount(t *testing.T) {
	db := open(t)
	mustExec(t, db, `CREATE TABLE "r" ("x" TEXT, "y" TEXT, "seq" INTEGER)`)
	mustExec(t, db, `INSERT INTO "r" VALUES
		('g1', 'a', 0), ('g1', 'b', 1),
		('g2', 'a', 2), ('g2', 'a', 3),
		('g3', 'a', 4), ('g3', NULL, 5),
		('g4', NULL, 6), ('g4', NULL, 7)`)
	// Plain COUNT(DISTINCT) misses g3: NULL vs 'a' is two Y values but the
	// count sees one.
	got := queryAll(t, db, `SELECT "r"."x" FROM "r" GROUP BY "r"."x" HAVING COUNT(DISTINCT "r"."y") > 1 ORDER BY MIN("r"."seq")`)
	if !reflect.DeepEqual(got, [][]string{{"g1"}}) {
		t.Fatalf("plain count: %v", got)
	}
	// The null-adjusted sqlgen shape catches g3 and still excludes g2/g4.
	got = queryAll(t, db, `SELECT "r"."x" FROM "r" GROUP BY "r"."x"
		HAVING COUNT(DISTINCT "r"."y") + MAX(CASE WHEN "r"."y" IS NULL THEN 1 ELSE 0 END) > 1
		ORDER BY MIN("r"."seq")`)
	if !reflect.DeepEqual(got, [][]string{{"g1"}, {"g3"}}) {
		t.Fatalf("adjusted count: %v", got)
	}
}

func TestAggregatesWithoutGroupBy(t *testing.T) {
	db := open(t)
	seed(t, db)
	got := queryAll(t, db, `SELECT COUNT(*), MIN("acct"."seq"), MAX("acct"."seq") FROM "acct"`)
	if !reflect.DeepEqual(got, [][]string{{"3", "0", "2"}}) {
		t.Fatalf("aggregates: %v", got)
	}
}

func TestCorrelatedNotExists(t *testing.T) {
	db := open(t)
	mustExec(t, db, `CREATE TABLE "saving" ("ab" TEXT, "seq" INTEGER)`)
	mustExec(t, db, `CREATE TABLE "interest" ("ab" TEXT)`)
	mustExec(t, db, `INSERT INTO "saving" VALUES ('NYC', 0), ('EDI', 1), (NULL, 2)`)
	mustExec(t, db, `INSERT INTO "interest" VALUES ('NYC'), (NULL)`)
	// Plain equality join: the NULL saving row never matches, so it is
	// reported even though interest holds a NULL too.
	got := queryAll(t, db, `SELECT t."seq" FROM "saving" t WHERE NOT EXISTS
		(SELECT 1 FROM "interest" s WHERE s."ab" = t."ab") ORDER BY t."seq"`)
	if !reflect.DeepEqual(got, [][]string{{"1"}, {"2"}}) {
		t.Fatalf("plain join: %v", got)
	}
	// Null-safe join (the sqlgen shape): NULL matches NULL.
	got = queryAll(t, db, `SELECT t."seq" FROM "saving" t WHERE NOT EXISTS
		(SELECT 1 FROM "interest" s WHERE (s."ab" = t."ab" OR (s."ab" IS NULL AND t."ab" IS NULL))) ORDER BY t."seq"`)
	if !reflect.DeepEqual(got, [][]string{{"1"}}) {
		t.Fatalf("null-safe join: %v", got)
	}
}

func TestDeleteAndDrop(t *testing.T) {
	db := open(t)
	seed(t, db)
	if _, err := db.Exec(`DELETE FROM "acct" WHERE "acct"."ab" = 'NYC'`); err != nil {
		t.Fatal(err)
	}
	if got := queryAll(t, db, `SELECT t."an" FROM "acct" t`); len(got) != 1 {
		t.Fatalf("after delete: %v", got)
	}
	mustExec(t, db, `DELETE FROM "acct"`)
	if got := queryAll(t, db, `SELECT t."an" FROM "acct" t`); len(got) != 0 {
		t.Fatalf("after delete all: %v", got)
	}
	mustExec(t, db, `DROP TABLE "acct"`)
	if _, err := db.Query(`SELECT t."an" FROM "acct" t`); err == nil {
		t.Fatal("query after drop succeeded")
	}
	mustExec(t, db, `DROP TABLE IF EXISTS "acct"`) // idempotent
	if _, err := db.Exec(`DROP TABLE "acct"`); err == nil {
		t.Fatal("bare drop of missing table succeeded")
	}
}

func TestQuotedIdentifiersAndLiterals(t *testing.T) {
	db := open(t)
	mustExec(t, db, `CREATE TABLE "we""ird" ("col""umn" TEXT)`)
	mustExec(t, db, `INSERT INTO "we""ird" VALUES ('O''Hare')`)
	got := queryAll(t, db, `SELECT t."col""umn" FROM "we""ird" t WHERE t."col""umn" = 'O''Hare'`)
	if !reflect.DeepEqual(got, [][]string{{"O'Hare"}}) {
		t.Fatalf("quoting round-trip: %v", got)
	}
}

func TestSharedAndIsolatedStores(t *testing.T) {
	db1, err := sql.Open(DriverName, "shared-dsn-test")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db1.Close(); Purge("shared-dsn-test") }()
	db2, err := sql.Open(DriverName, "shared-dsn-test")
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	other := open(t)

	mustExec(t, db1, `CREATE TABLE "r" ("a" TEXT)`)
	mustExec(t, db1, `INSERT INTO "r" VALUES ('x')`)
	if got := queryAll(t, db2, `SELECT t."a" FROM "r" t`); len(got) != 1 {
		t.Fatalf("same DSN not shared: %v", got)
	}
	if _, err := other.Query(`SELECT t."a" FROM "r" t`); err == nil {
		t.Fatal("distinct DSNs share tables")
	}
}

func TestPreparedStatement(t *testing.T) {
	db := open(t)
	mustExec(t, db, `CREATE TABLE "r" ("a" TEXT, "b" TEXT)`)
	ins, err := db.Prepare(`INSERT INTO "r" VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	for i := 0; i < 3; i++ {
		if _, err := ins.Exec(fmt.Sprint(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	got := queryAll(t, db, `SELECT t."a", t."b" FROM "r" t ORDER BY t."a"`)
	want := [][]string{{"0", "<null>"}, {"1", "<null>"}, {"2", "<null>"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("prepared inserts: %v", got)
	}
}

func TestContextCancellation(t *testing.T) {
	db := open(t)
	seed(t, db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, `SELECT t."an" FROM "acct" t`); err == nil {
		t.Fatal("cancelled query succeeded")
	}
	if _, err := db.ExecContext(ctx, `DELETE FROM "acct"`); err == nil {
		t.Fatal("cancelled exec succeeded")
	}
}

func TestErrors(t *testing.T) {
	db := open(t)
	seed(t, db)
	for _, q := range []string{
		`SELECT`,                                     // truncated
		`SELECT t."an" FROM "nope" t`,                // unknown table
		`SELECT t."nope" FROM "acct" t`,              // unknown column
		`SELECT s."an" FROM "acct" t`,                // unknown alias
		`SELECT t."an" FROM "acct" t WHERE`,          // dangling WHERE
		`SELECT t."an" FROM "acct" t GROUP`,          // dangling GROUP
		`SELECT t."an" FROM "acct" t trailing junk`,  // trailing tokens
		`FROB "acct"`,                                // unknown statement
		`SELECT COUNT(DISTINCT t."an" FROM "acct" t`, // unclosed call
		`SELECT 'unterminated FROM "acct" t`,         // unterminated literal
		`SELECT t."an" + 'x' FROM "acct" t`,          // arithmetic on text
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("query %q succeeded", q)
		}
	}
	if _, err := db.Exec(`CREATE TABLE "acct" ("a" TEXT)`); err == nil {
		t.Error("duplicate CREATE TABLE succeeded")
	}
	if _, err := db.Exec(`CREATE TABLE "d" ("a" TEXT, "a" TEXT)`); err == nil {
		t.Error("duplicate column CREATE TABLE succeeded")
	}
	if _, err := db.Exec(`INSERT INTO "acct" VALUES ('one')`); err == nil {
		t.Error("arity-mismatched INSERT succeeded")
	}
	if _, err := db.Exec(`INSERT INTO "nope" VALUES ('x')`); err == nil {
		t.Error("INSERT into missing table succeeded")
	}
	if _, err := db.Exec(`DELETE FROM "nope"`); err == nil {
		t.Error("DELETE from missing table succeeded")
	}
	if _, err := db.Exec(`SELECT t."an" FROM "acct" t`); err == nil {
		t.Error("Exec of SELECT succeeded")
	}
	if _, err := db.Query(`DELETE FROM "acct"`); err == nil {
		t.Error("Query of DELETE succeeded")
	}
}

func TestCaseExpression(t *testing.T) {
	db := open(t)
	mustExec(t, db, `CREATE TABLE "r" ("a" TEXT)`)
	mustExec(t, db, `INSERT INTO "r" VALUES ('x'), (NULL)`)
	got := queryAll(t, db, `SELECT CASE WHEN t."a" IS NULL THEN 1 ELSE 0 END FROM "r" t`)
	var flags []string
	for _, rec := range got {
		flags = append(flags, rec[0])
	}
	slices.Sort(flags)
	if !reflect.DeepEqual(flags, []string{"0", "1"}) {
		t.Fatalf("case flags: %v", got)
	}
	// ELSE-less CASE yields NULL when nothing matches.
	got = queryAll(t, db, `SELECT CASE WHEN 1 = 2 THEN 1 END FROM "r" t`)
	if got[0][0] != "<null>" {
		t.Fatalf("else-less case: %v", got)
	}
}

func TestTransactionNoOp(t *testing.T) {
	db := open(t)
	mustExec(t, db, `CREATE TABLE "r" ("a" TEXT)`)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO "r" VALUES ('x')`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := queryAll(t, db, `SELECT t."a" FROM "r" t`); len(got) != 1 {
		t.Fatalf("after tx: %v", got)
	}
}

func TestOrderByMinSeqGroupOrder(t *testing.T) {
	db := open(t)
	mustExec(t, db, `CREATE TABLE "r" ("x" TEXT, "seq" INTEGER)`)
	// Group 'b' appears first in insertion order; ORDER BY MIN(seq) must
	// put it first even though 'a' < 'b' lexically.
	mustExec(t, db, `INSERT INTO "r" VALUES ('b', 0), ('a', 1), ('b', 2), ('a', 3)`)
	got := queryAll(t, db, `SELECT "r"."x" FROM "r" GROUP BY "r"."x" ORDER BY MIN("r"."seq")`)
	if !reflect.DeepEqual(got, [][]string{{"b"}, {"a"}}) {
		t.Fatalf("group order: %v", got)
	}
}
