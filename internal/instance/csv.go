package instance

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// LoadCSV reads rows into the named relation of db. When header is true the
// first record must name every attribute of the relation exactly once (any
// order); the columns are then mapped by name, and a duplicate, empty or
// unknown name is rejected — silently mapping two CSV columns onto one
// schema index would drop a column's data without any error. Without a
// header, records must be in schema order. Values must belong to the
// attribute domains.
func LoadCSV(db *Database, rel string, r io.Reader, header bool) error {
	in := db.Instance(rel)
	rs := in.Relation()
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = rs.Arity()

	colOrder := make([]int, rs.Arity())
	for i := range colOrder {
		colOrder[i] = i
	}
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("instance: %s: %v", rel, err)
		}
		if first && header {
			first = false
			// The header has exactly arity fields (FieldsPerRecord), so
			// "every name known, no name twice" pins a bijection onto the
			// schema columns — no attribute can be missing.
			seen := make([]bool, rs.Arity())
			for i, name := range rec {
				name = strings.TrimSpace(name)
				if name == "" {
					return fmt.Errorf("instance: %s: missing column name in header (field %d)", rel, i+1)
				}
				j, ok := rs.Index(name)
				if !ok {
					return fmt.Errorf("instance: %s: unknown column %q", rel, name)
				}
				if seen[j] {
					return fmt.Errorf("instance: %s: duplicate column %q in header", rel, name)
				}
				seen[j] = true
				colOrder[i] = j
			}
			continue
		}
		first = false
		t := make(Tuple, rs.Arity())
		for i, v := range rec {
			j := colOrder[i]
			a := rs.Attrs()[j]
			if !a.Dom.Contains(v) {
				return fmt.Errorf("instance: %s: value %q outside dom(%s)", rel, v, a.Name)
			}
			t[j] = Const(v)
		}
		in.Insert(t)
	}
}

// MarshalCSV renders an instance back to CSV (schema column order, with
// header) — handy for emitting repaired data.
func MarshalCSV(in *Instance, w io.Writer) error {
	cw := csv.NewWriter(w)
	rs := in.Relation()
	if err := cw.Write(rs.AttrNames()); err != nil {
		return err
	}
	for _, t := range in.Tuples() {
		rec := make([]string, len(t))
		for i, v := range t {
			if !v.IsConst() {
				return fmt.Errorf("instance: cannot serialise variable %v", v)
			}
			rec[i] = v.Str()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
