// Command bankdata regenerates the checked-in testdata/bank fixtures from
// the canonical in-code fixtures of internal/bank: the constraint file
// bank.cind (the schema of Example 1.1 plus the CINDs of Figure 2 and CFDs
// of Figure 4) and one CSV per Figure 1 instance — including the dirty
// 10.5% interest rate in t12 that the integration tests expect detection to
// catch.
//
// Usage:
//
//	go run ./cmd/bankdata [-dir testdata/bank]
//
// TestTestdataMatchesBankPackage guards the generated files against drift
// from internal/bank; rerun this command after changing the bank package.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cind/internal/bank"
	"cind/internal/instance"
	"cind/internal/parser"
)

func main() {
	dir := flag.String("dir", filepath.Join("testdata", "bank"), "output directory")
	flag.Parse()

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	sch := bank.Schema()
	spec := parser.BankSpec(sch, bank.CFDs(sch), bank.CINDs(sch))
	if _, err := parser.Parse(spec); err != nil {
		fatal(fmt.Errorf("generated spec does not reparse: %v", err))
	}
	if err := os.WriteFile(filepath.Join(*dir, "bank.cind"), []byte(spec), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", filepath.Join(*dir, "bank.cind"))

	db := bank.Data(sch)
	for _, rel := range sch.Relations() {
		name := rel.Name() + ".csv"
		f, err := os.Create(filepath.Join(*dir, name))
		if err != nil {
			fatal(err)
		}
		if err := instance.MarshalCSV(db.Instance(rel.Name()), f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", filepath.Join(*dir, name))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bankdata:", err)
	os.Exit(2)
}
