package instance_test

import (
	"bytes"
	"strings"
	"testing"

	"cind/internal/bank"
	"cind/internal/instance"
)

const interestCSV = `ab,ct,at,rt
EDI,UK,saving,4.5%
EDI,UK,checking,10.5%
NYC,US,saving,4%
NYC,US,checking,1%
`

func TestLoadCSVWithHeader(t *testing.T) {
	db := instance.NewDatabase(bank.Schema())
	if err := instance.LoadCSV(db, "interest", strings.NewReader(interestCSV), true); err != nil {
		t.Fatal(err)
	}
	in := db.Instance("interest")
	if in.Len() != 4 {
		t.Fatalf("loaded %d tuples", in.Len())
	}
	if !in.Contains(instance.Consts("EDI", "UK", "checking", "10.5%")) {
		t.Fatal("t12 missing")
	}
}

func TestLoadCSVHeaderReorders(t *testing.T) {
	db := instance.NewDatabase(bank.Schema())
	csvData := "rt,ab,at,ct\n4.5%,EDI,saving,UK\n"
	if err := instance.LoadCSV(db, "interest", strings.NewReader(csvData), true); err != nil {
		t.Fatal(err)
	}
	if !db.Instance("interest").Contains(instance.Consts("EDI", "UK", "saving", "4.5%")) {
		t.Fatal("column remapping failed")
	}
}

func TestLoadCSVNoHeader(t *testing.T) {
	db := instance.NewDatabase(bank.Schema())
	if err := instance.LoadCSV(db, "interest", strings.NewReader("EDI,UK,saving,4.5%\n"), false); err != nil {
		t.Fatal(err)
	}
	if db.Instance("interest").Len() != 1 {
		t.Fatal("row not loaded")
	}
}

func TestLoadCSVErrors(t *testing.T) {
	db := instance.NewDatabase(bank.Schema())
	if err := instance.LoadCSV(db, "interest", strings.NewReader("ab,nope,at,rt\nx,y,saving,z\n"), true); err == nil {
		t.Fatal("unknown column must fail")
	}
	if err := instance.LoadCSV(db, "interest", strings.NewReader("EDI,UK\n"), false); err == nil {
		t.Fatal("short record must fail")
	}
	// Value outside the finite at domain.
	if err := instance.LoadCSV(db, "interest", strings.NewReader("EDI,UK,mortgage,4%\n"), false); err == nil {
		t.Fatal("domain violation must fail")
	}
}

// TestLoadCSVHeaderRejectsDuplicateColumn pins the data-loss fix: a header
// naming the same attribute twice used to map two CSV columns onto one
// schema index, silently dropping one column's data (and leaving another
// attribute nil). It must be an error.
func TestLoadCSVHeaderRejectsDuplicateColumn(t *testing.T) {
	db := instance.NewDatabase(bank.Schema())
	// "ab" twice, "rt" never: before the fix both ab fields landed on the
	// same index and rt stayed at its positional default.
	csvData := "ab,ct,at,ab\nEDI,UK,saving,4.5%\n"
	err := instance.LoadCSV(db, "interest", strings.NewReader(csvData), true)
	if err == nil {
		t.Fatal("duplicate header column must be rejected")
	}
	if !strings.Contains(err.Error(), "duplicate column") {
		t.Fatalf("want a duplicate-column error, got: %v", err)
	}
	if db.Instance("interest").Len() != 0 {
		t.Fatal("no tuples may be loaded after a header error")
	}
}

// TestLoadCSVHeaderRejectsMissingName rejects empty header fields instead
// of failing the attribute lookup with a confusing "unknown column" error.
func TestLoadCSVHeaderRejectsMissingName(t *testing.T) {
	db := instance.NewDatabase(bank.Schema())
	csvData := "ab,ct,,rt\nEDI,UK,saving,4.5%\n"
	err := instance.LoadCSV(db, "interest", strings.NewReader(csvData), true)
	if err == nil {
		t.Fatal("empty header column name must be rejected")
	}
	if !strings.Contains(err.Error(), "missing column name") {
		t.Fatalf("want a missing-column-name error, got: %v", err)
	}
}

// TestLoadCSVHeaderCoversEveryAttribute documents why no separate
// missing-attribute check is needed: the header has exactly arity fields,
// so all-known + no-duplicate forces a bijection onto the schema columns.
// A header that drops one attribute must therefore repeat or misname
// another, and both are rejected.
func TestLoadCSVHeaderCoversEveryAttribute(t *testing.T) {
	db := instance.NewDatabase(bank.Schema())
	// Dropping "rt" while keeping arity means naming something else --
	// unknown name.
	csvData := "ab,ct,at,whoops\nEDI,UK,saving,4.5%\n"
	if err := instance.LoadCSV(db, "interest", strings.NewReader(csvData), true); err == nil ||
		!strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("want an unknown-column error, got: %v", err)
	}
	// Short header rows are a CSV field-count error (FieldsPerRecord).
	if err := instance.LoadCSV(db, "interest", strings.NewReader("ab,ct,at\nEDI,UK,saving\n"), true); err == nil {
		t.Fatal("short header must be rejected")
	}
}

func TestMarshalCSVRoundTrip(t *testing.T) {
	sch := bank.Schema()
	db := bank.Data(sch)
	var buf bytes.Buffer
	if err := instance.MarshalCSV(db.Instance("interest"), &buf); err != nil {
		t.Fatal(err)
	}
	db2 := instance.NewDatabase(sch)
	if err := instance.LoadCSV(db2, "interest", &buf, true); err != nil {
		t.Fatal(err)
	}
	if db2.Instance("interest").Len() != db.Instance("interest").Len() {
		t.Fatal("round-trip lost tuples")
	}
	for _, tup := range db.Instance("interest").Tuples() {
		if !db2.Instance("interest").Contains(tup) {
			t.Fatalf("tuple %v lost", tup)
		}
	}
}
