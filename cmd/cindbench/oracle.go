package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	cind "cind"

	"cind/internal/stream"
)

// digest fingerprints a violation multiset independently of order: the
// served stream interleaves detection groups across the default worker
// pool, so only the multiset is fixed. It is the count plus the wrapping
// sum of each violation's FNV-1a hash.
type digest struct {
	N   int
	Sum uint64
}

func (d digest) String() string { return fmt.Sprintf("%d violations, sum %016x", d.N, d.Sum) }

// hashViolation hashes every field of a wire violation, with separators so
// that no two distinct violations share an encoding.
func hashViolation(v *stream.Violation) uint64 {
	h := fnv.New64a()
	var b []byte
	field := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	field(v.Kind)
	field(v.Constraint)
	field(v.Relation)
	b = binary.AppendVarint(b, int64(v.Row))
	b = binary.AppendUvarint(b, uint64(len(v.Witness)))
	for _, t := range v.Witness {
		b = binary.AppendUvarint(b, uint64(len(t)))
		for _, val := range t {
			field(val)
		}
	}
	h.Write(b)
	return h.Sum64()
}

func digestOf(vs []stream.Violation) digest {
	d := digest{N: len(vs)}
	for i := range vs {
		d.Sum += hashViolation(&vs[i])
	}
	return d
}

// reportDigest fingerprints an engine report the way digestOf fingerprints
// the decoded stream.
func reportDigest(rep *cind.Report) digest {
	vs := rep.Violations()
	wire := make([]stream.Violation, len(vs))
	for i, v := range vs {
		wire[i] = stream.Convert(v)
	}
	return digestOf(wire)
}

// loadDatabase builds the dataset in process from the same spec text and
// CSV bytes the server receives.
func loadDatabase(d *dataset) (*cind.ConstraintSet, *cind.Database, error) {
	set, err := cind.ParseConstraints(d.spec)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: parse %s spec: %w", d.name, err)
	}
	db := cind.NewDatabase(set.Schema())
	for _, rel := range set.Schema().Relations() {
		if len(d.rows[rel.Name()]) == 0 {
			continue
		}
		if err := cind.LoadCSV(db, rel.Name(), bytes.NewReader(d.csv(set.Schema(), rel.Name())), true); err != nil {
			return nil, nil, fmt.Errorf("oracle: load %s.%s: %w", d.name, rel.Name(), err)
		}
	}
	return set, db, nil
}

// expected is the oracle for a dataset served as loaded: Checker.Detect
// over the in-process copy.
func expected(d *dataset) (digest, error) {
	set, db, err := loadDatabase(d)
	if err != nil {
		return digest{}, err
	}
	return detectDigest(set, db)
}

func detectDigest(set *cind.ConstraintSet, db *cind.Database) (digest, error) {
	chk, err := cind.NewChecker(db, set)
	if err != nil {
		return digest{}, err
	}
	rep, err := chk.Detect(context.Background())
	if err != nil {
		return digest{}, err
	}
	return reportDigest(rep), nil
}

// replayed is the delta-churn oracle: the base dataset with the first n
// batches applied directly to the database, then batch Detect — no session
// involved, so it checks the served session against the batch engine.
func replayed(d *dataset, script [][]delta, n int) (digest, error) {
	set, db, err := loadDatabase(d)
	if err != nil {
		return digest{}, err
	}
	for _, batch := range script[:n] {
		for _, dl := range batch {
			if t := cind.Consts(dl.tuple...); dl.insert {
				db.Insert("checking", t)
			} else {
				db.Delete("checking", t)
			}
		}
	}
	return detectDigest(set, db)
}
