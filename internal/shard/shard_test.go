package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	cind "cind"

	"cind/internal/bank"
	"cind/internal/detect"
	"cind/internal/gen"
	"cind/internal/instance"
	"cind/internal/stream"
	"cind/internal/wal"
)

func bankSet(t testing.TB) *cind.ConstraintSet {
	t.Helper()
	sch := bank.Schema()
	set, err := cind.SpecSet(&cind.Spec{Schema: sch, CFDs: bank.CFDs(sch), CINDs: bank.CINDs(sch)})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// dirtyBank is the bank example instance with extra violations planted:
// checking tuples colliding on (an, ab) with conflicting names (phi2
// pairs), and interest rows deleted (stranding psi3/psi4 demands).
func dirtyBank(t testing.TB) (*cind.ConstraintSet, *cind.Database) {
	t.Helper()
	set := bankSet(t)
	db := bank.Data(bank.Schema())
	for i := 0; i < 40; i++ {
		db.Instance("checking").Insert(instance.Consts(
			fmt.Sprintf("%03d", i%8), fmt.Sprintf("Cust-%d", i), "Addr", "555",
			[]string{"NYC", "EDI"}[i%2]))
	}
	in := db.Instance("interest")
	if tuples := in.Tuples(); len(tuples) > 0 {
		in.Delete(tuples[0])
	}
	return set, db
}

func TestPlanBankPlacement(t *testing.T) {
	set := bankSet(t)
	p, err := NewPlan(set, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 4 || p.Set() != set {
		t.Fatalf("Shards/Set = %d/%p, want 4/%p", p.Shards(), p.Set(), set)
	}
	// saving, checking, interest sit on a CIND RHS: replicated despite
	// carrying CFDs. The account relations drive no CFD and are nobody's
	// RHS: partitioned on the full tuple.
	for _, rel := range []string{"saving", "checking", "interest"} {
		if pl := p.Placement(rel); pl.Partitioned {
			t.Errorf("%s partitioned, want replicated (CIND RHS)", rel)
		}
	}
	for _, rel := range []string{"account_NYC", "account_EDI"} {
		pl := p.Placement(rel)
		if !pl.Partitioned {
			t.Errorf("%s replicated, want partitioned", rel)
			continue
		}
		if len(pl.Cols) != 5 {
			t.Errorf("%s partition cols = %v, want all 5", rel, pl.Cols)
		}
	}
	// CFDs drive replicated relations: shard 0 owns them. The account
	// CINDs drive partitioned relations: every shard owns its slice.
	for _, id := range []string{"phi1", "phi2", "phi3", "psi3", "psi4", "psi5", "psi6"} {
		if p.Keep(0, id) != true || p.Keep(1, id) != false {
			t.Errorf("Keep(%s) = %v/%v, want shard-0 ownership", id, p.Keep(0, id), p.Keep(1, id))
		}
	}
	for _, id := range []string{"psi1_NYC", "psi2_NYC", "psi1_EDI", "psi2_EDI"} {
		if !p.Keep(0, id) || !p.Keep(3, id) {
			t.Errorf("Keep(%s) not true on all shards", id)
		}
	}
	if p.Keep(0, "nope") {
		t.Error("Keep(unknown constraint) = true, want false")
	}
}

func TestNewPlanRejectsBadShardCount(t *testing.T) {
	if _, err := NewPlan(bankSet(t), 0); err == nil {
		t.Fatal("NewPlan(set, 0) succeeded, want error")
	}
}

func TestShardOfDeterministicAndSpread(t *testing.T) {
	set := bankSet(t)
	p, err := NewPlan(set, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sh := p.ShardOf("saving", instance.Consts("a", "b", "c", "d", "e")); sh != -1 {
		t.Fatalf("ShardOf(replicated saving) = %d, want -1", sh)
	}
	seen := make(map[int]int)
	for i := 0; i < 256; i++ {
		tup := instance.Consts(fmt.Sprintf("an%d", i), "cn", "ca", "cp", "NYC")
		sh := p.ShardOf("account_NYC", tup)
		if sh < 0 || sh >= 4 {
			t.Fatalf("ShardOf = %d, out of [0,4)", sh)
		}
		if again := p.ShardOf("account_NYC", tup); again != sh {
			t.Fatalf("ShardOf not deterministic: %d then %d", sh, again)
		}
		seen[sh]++
	}
	for sh := 0; sh < 4; sh++ {
		if seen[sh] == 0 {
			t.Errorf("shard %d received no tuples of 256", sh)
		}
	}
}

func TestDataDirNamespacesByShard(t *testing.T) {
	a, b := DataDir("/var/lib/cind", 0), DataDir("/var/lib/cind", 1)
	if a == b {
		t.Fatalf("DataDir shard 0 and 1 collide: %s", a)
	}
	if !strings.HasPrefix(a, "/var/lib/cind") {
		t.Fatalf("DataDir left the root: %s", a)
	}
}

func TestOrderSetSemantics(t *testing.T) {
	set := bankSet(t)
	p, err := NewPlan(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOrder(p)
	tup := instance.Consts("001", "Cust", "Addr", "555", "NYC")
	if !o.Insert("checking", tup) {
		t.Fatal("first Insert = false")
	}
	if o.Insert("checking", tup) {
		t.Fatal("duplicate Insert = true, want no-op")
	}
	if o.Len("checking") != 1 {
		t.Fatalf("Len = %d, want 1", o.Len("checking"))
	}
	if o.Delete("checking", instance.Consts("999", "x", "y", "z", "EDI")) {
		t.Fatal("absent Delete = true, want no-op")
	}
	if !o.Delete("checking", tup) {
		t.Fatal("live Delete = false")
	}
	if o.Len("checking") != 0 {
		t.Fatalf("Len after delete = %d, want 0", o.Len("checking"))
	}
	// Apply routes ops to Insert/Delete.
	if !o.Apply(cind.InsertDelta("checking", tup)) {
		t.Fatal("Apply(insert) = false")
	}
	if !o.Apply(cind.DeleteDelta("checking", tup)) {
		t.Fatal("Apply(delete) = false")
	}
}

func TestOrderKeyErrors(t *testing.T) {
	set := bankSet(t)
	p, err := NewPlan(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOrder(p)
	for _, tc := range []struct {
		name string
		v    stream.Violation
	}{
		{"unknown constraint", stream.Violation{Constraint: "nope", Witness: [][]string{{"a"}}}},
		{"no witness", stream.Violation{Constraint: "phi2"}},
		{"untracked CFD group", stream.Violation{Constraint: "phi2", Witness: [][]string{{"001", "c", "a", "p", "NYC"}}}},
		{"untracked CIND tuple", stream.Violation{Constraint: "psi3", Witness: [][]string{{"a", "b", "c", "d", "e"}}}},
	} {
		_, err := o.Key(&tc.v)
		if err == nil {
			t.Errorf("Key(%s) succeeded", tc.name)
			continue
		}
		rec := recordOf(t, tc.v)
		if _, rerr := o.RecordKey(&rec); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("RecordKey(%s) = %v, Key says %v", tc.name, rerr, err)
		}
	}
}

// recordOf frames v as a one-violation binary stream and reads it back
// through the record view: the record a router's gather would key.
func recordOf(t testing.TB, v stream.Violation) stream.Record {
	t.Helper()
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	// A 'B' batch: the constraint's declaration, one per witness tuple,
	// then the violation citing them by id.
	body := str(str(str([]byte{'B', 'C'}, v.Kind), v.Constraint), v.Relation)
	for _, tup := range v.Witness {
		body = binary.AppendUvarint(append(body, 'T'), uint64(len(tup)))
		for _, val := range tup {
			body = str(body, val)
		}
	}
	body = binary.AppendVarint(append(body, 'V', 0), int64(v.Row))
	body = binary.AppendUvarint(body, uint64(len(v.Witness)))
	for i := range v.Witness {
		body = binary.AppendUvarint(body, uint64(i))
	}
	var raw bytes.Buffer
	wal.AppendFrame(&raw, body)
	wal.AppendFrame(&raw, []byte{'Z', 1})
	d := stream.NewDecoder(&raw, stream.Binary)
	rec, err := d.NextRecord()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NextRecord(); err != io.EOF {
		t.Fatalf("one-record stream ends in %v", err)
	}
	return rec
}

// resultWire renders a detection result in report order — all CFD
// violations, then all CIND violations.
func resultWire(res *detect.Report) []stream.Violation {
	out := make([]stream.Violation, 0, res.Total())
	for _, v := range res.Violations() {
		out = append(out, stream.Convert(v))
	}
	return out
}

type sliceSource struct {
	vs []stream.Violation
	i  int
}

func (s *sliceSource) Next() (stream.Violation, error) {
	if s.i >= len(s.vs) {
		return stream.Violation{}, io.EOF
	}
	v := s.vs[s.i]
	s.i++
	return v, nil
}

// scatter splits db per the plan into one database per shard and records
// the global insertion order in a fresh Order.
func scatter(t testing.TB, p *Plan, db *cind.Database) ([]*cind.Database, *Order) {
	t.Helper()
	o := NewOrder(p)
	dbs := make([]*cind.Database, p.Shards())
	for i := range dbs {
		dbs[i] = cind.NewDatabase(p.Set().Schema())
	}
	for _, rel := range p.Set().Schema().Relations() {
		name := rel.Name()
		for _, tup := range db.Instance(name).Tuples() {
			o.Insert(name, tup)
			if sh := p.ShardOf(name, tup); sh >= 0 {
				dbs[sh].Instance(name).Insert(tup)
			} else {
				for i := range dbs {
					dbs[i].Instance(name).Insert(tup)
				}
			}
		}
	}
	return dbs, o
}

// ownedKeyOf is the router's merge key function: a violation of a
// constraint its shard does not own fails the merge instead of being
// dropped.
func ownedKeyOf(p *Plan, o *Order) func(int, *stream.Violation) (detect.MergeKey, bool, error) {
	return func(sh int, v *stream.Violation) (detect.MergeKey, bool, error) {
		if !p.Keep(sh, v.Constraint) {
			return detect.MergeKey{}, false, fmt.Errorf("violation of %q, which shard %d does not own", v.Constraint, sh)
		}
		k, err := o.Key(v)
		return k, err == nil, err
	}
}

// detectOwned runs shard i's detection over the constraints it owns.
func detectOwned(p *Plan, i int, db *cind.Database) []stream.Violation {
	owned := p.Owned(i)
	return resultWire(detect.Run(db, owned.CFDs(), owned.CINDs(), detect.Options{Parallel: 1}))
}

// mergeShards detects each shard's owned constraints on its database and
// k-way merges the per-shard report-ordered streams back together.
func mergeShards(t testing.TB, p *Plan, o *Order, dbs []*cind.Database) []stream.Violation {
	t.Helper()
	sources := make([]Source, len(dbs))
	for i, sdb := range dbs {
		sources[i] = &sliceSource{vs: detectOwned(p, i, sdb)}
	}
	var merged []stream.Violation
	_, err := Merge(sources, ownedKeyOf(p, o),
		func(v *stream.Violation) bool {
			merged = append(merged, *v)
			return true
		})
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	return merged
}

// TestShardedDetectMatchesSingleNode is the package's acceptance test: for
// 1, 2 and 4 shards, partitioning the dirty bank instance per the plan,
// detecting per shard, and merging through Order-reconstructed keys must
// reproduce the single-node detection stream violation for violation — and
// keep doing so after a delta batch mutates every copy.
func TestShardedDetectMatchesSingleNode(t *testing.T) {
	set, db := dirtyBank(t)
	single := detect.Run(db, set.CFDs(), set.CINDs(), detect.Options{Parallel: 1})
	want := resultWire(single)
	if len(want) == 0 {
		t.Fatal("dirty bank produced no violations; test is vacuous")
	}

	deltas := []cind.Delta{
		cind.InsertDelta("checking", instance.Consts("001", "Other-Name", "Addr", "555", "NYC")),
		cind.DeleteDelta("checking", instance.Consts("000", "Cust-0", "Addr", "555", "NYC")),
		cind.InsertDelta("account_NYC", instance.Consts("900", "N", "A", "5", "checking")),
		cind.InsertDelta("interest", instance.Consts("2.00", "UK", "saving", "4.5%")),
	}

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			p, err := NewPlan(set, n)
			if err != nil {
				t.Fatal(err)
			}
			dbs, o := scatter(t, p, db)
			got := mergeShards(t, p, o, dbs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("merged stream diverges from single node: %d vs %d violations\nfirst got:  %+v\nfirst want: %+v",
					len(got), len(want), head(got), head(want))
			}

			// Mutate: single node and every shard copy apply the same batch;
			// the order tracker follows. The merged stream must track.
			mutated := cloneDB(set, db)
			applyDeltas(mutated, deltas)
			for _, dl := range deltas {
				if sh := p.ShardOf(dl.Rel, dl.Tuple); sh >= 0 {
					applyDeltas(dbs[sh], []cind.Delta{dl})
				} else {
					for i := range dbs {
						applyDeltas(dbs[i], []cind.Delta{dl})
					}
				}
				o.Apply(dl)
			}
			want2 := resultWire(detect.Run(mutated, set.CFDs(), set.CINDs(), detect.Options{Parallel: 1}))
			got2 := mergeShards(t, p, o, dbs)
			if !reflect.DeepEqual(got2, want2) {
				t.Fatalf("post-delta merged stream diverges: %d vs %d violations", len(got2), len(want2))
			}
		})
	}
}

func head(vs []stream.Violation) any {
	if len(vs) == 0 {
		return "<empty>"
	}
	return vs[0]
}

func cloneDB(set *cind.ConstraintSet, db *cind.Database) *cind.Database {
	out := cind.NewDatabase(set.Schema())
	for _, rel := range set.Schema().Relations() {
		for _, tup := range db.Instance(rel.Name()).Tuples() {
			out.Instance(rel.Name()).Insert(tup)
		}
	}
	return out
}

func applyDeltas(db *cind.Database, deltas []cind.Delta) {
	for _, d := range deltas {
		if d.Op == detect.OpInsert {
			db.Instance(d.Rel).Insert(d.Tuple)
		} else {
			db.Instance(d.Rel).Delete(d.Tuple)
		}
	}
}

func TestMergeStopsOnConsumer(t *testing.T) {
	vs := []stream.Violation{{Constraint: "a"}, {Constraint: "b"}, {Constraint: "c"}}
	keyOf := func(sh int, v *stream.Violation) (detect.MergeKey, bool, error) {
		return detect.MergeKey{Seq: uint64(v.Constraint[0])}, true, nil
	}
	n := 0
	count, err := Merge([]Source{&sliceSource{vs: vs}}, keyOf, func(*stream.Violation) bool {
		n++
		return n < 2
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 1 {
		t.Fatalf("emitted count = %d, want 1", count)
	}
}

type errSource struct{ err error }

func (s *errSource) Next() (stream.Violation, error) { return stream.Violation{}, s.err }

func TestMergeWrapsSourceError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Merge([]Source{&sliceSource{}, &errSource{err: boom}},
		func(int, *stream.Violation) (detect.MergeKey, bool, error) {
			return detect.MergeKey{}, true, nil
		},
		func(*stream.Violation) bool { return true })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("err %q does not name shard 1", err)
	}
}

func TestMergeKeyOfError(t *testing.T) {
	bad := errors.New("no key")
	_, err := Merge([]Source{&sliceSource{vs: []stream.Violation{{}}}},
		func(int, *stream.Violation) (detect.MergeKey, bool, error) {
			return detect.MergeKey{}, false, bad
		},
		func(*stream.Violation) bool { return true })
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want keyOf error", err)
	}
}

func constraintIDs(set *cind.ConstraintSet) []string {
	ids := make([]string, 0, set.Len())
	for _, c := range set.Constraints() {
		ids = append(ids, constraintID(c))
	}
	return ids
}

// replicatedSpec is what replicatedBankSet adds to the bank Σ without its
// account CINDs: a CFD on saving and one on checking whose X sets are
// disjoint from phi1's and phi2's, forcing both relations to replication.
const replicatedSpec = `
cfd phi4: saving(cn -> cp) {
  (_ || _)
}

cfd phi5: checking(cn -> cp) {
  (_ || _)
}
`

// replicatedBankSet is a Σ whose every driving relation is replicated:
// the bank Σ without the account CINDs, plus replicatedSpec. Shard 0 owns
// everything and no other shard owns anything.
func replicatedBankSet(t testing.TB) *cind.ConstraintSet {
	t.Helper()
	full := bankSet(t)
	var keep []cind.Constraint
	for _, c := range full.Constraints() {
		if id := constraintID(c); !strings.HasPrefix(id, "psi1_") && !strings.HasPrefix(id, "psi2_") {
			keep = append(keep, c)
		}
	}
	set, err := cind.NewConstraintSet(full.Schema(), keep...)
	if err != nil {
		t.Fatal(err)
	}
	set, err = cind.ParseConstraints(cind.MarshalConstraints(set) + replicatedSpec)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestPlanOwnedPartitionsSigma: shard 0 owns every constraint, shard i≥1
// owns a constraint exactly when Keep(i, id) holds (and Owns of its merge
// key agrees), and every owned set
// keeps Σ's order and schema — on the bank Σ, a generated Σ, and a Σ
// whose every driving relation is replicated.
func TestPlanOwnedPartitionsSigma(t *testing.T) {
	w := gen.New(gen.Config{Relations: 16, Card: 60, CFDRatio: 0.5, Consistent: true, Seed: 2})
	genSet, err := cind.SpecSet(&cind.Spec{Schema: w.Schema, CFDs: w.CFDs, CINDs: w.CINDs})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		set  *cind.ConstraintSet
		// restLen is the size of every shard≥1 owned set, -1 when the
		// case only requires it to be a proper, non-empty subset.
		restLen int
	}{
		{"bank", bankSet(t), 4},
		{"gen", genSet, -1},
		{"replicated", replicatedBankSet(t), 0},
	}
	for _, tc := range cases {
		all := constraintIDs(tc.set)
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, n), func(t *testing.T) {
				p, err := NewPlan(tc.set, n)
				if err != nil {
					t.Fatal(err)
				}
				if got := p.Owned(0); got != tc.set {
					t.Fatalf("Owned(0) = %v, want the full Σ", constraintIDs(got))
				}
				for i := 0; i < n; i++ {
					owned := p.Owned(i)
					if owned.Schema() != tc.set.Schema() {
						t.Errorf("Owned(%d) has its own schema, want Σ's", i)
					}
					want := []string{}
					for _, id := range all {
						if p.Keep(i, id) {
							want = append(want, id)
						}
					}
					if got := constraintIDs(owned); !reflect.DeepEqual(got, want) {
						t.Errorf("Owned(%d) = %v, want the Keep(%d) subsequence %v", i, got, i, want)
					}
					for k, c := range tc.set.CFDs() {
						if p.Owns(i, detect.MergeKey{Kind: 0, Constraint: k}) != p.Keep(i, c.ID) {
							t.Errorf("Owns(%d, %s) disagrees with Keep", i, c.ID)
						}
					}
					for k, c := range tc.set.CINDs() {
						if p.Owns(i, detect.MergeKey{Kind: 1, Constraint: k}) != p.Keep(i, c.ID) {
							t.Errorf("Owns(%d, %s) disagrees with Keep", i, c.ID)
						}
					}
					if i == 0 {
						continue
					}
					switch l := owned.Len(); {
					case tc.restLen >= 0 && l != tc.restLen:
						t.Errorf("Owned(%d).Len() = %d, want %d", i, l, tc.restLen)
					case tc.restLen < 0 && (l == 0 || l == len(all)):
						t.Errorf("Owned(%d).Len() = %d of %d, want a proper non-empty subset", i, l, len(all))
					}
				}
			})
		}
	}
}

// TestShardedReplicatedSigmaMatchesSingleNode: when no shard but shard 0
// owns anything, the other shards detect over an empty set and the merge
// still reproduces the single node.
func TestShardedReplicatedSigmaMatchesSingleNode(t *testing.T) {
	_, db := dirtyBank(t)
	set := replicatedBankSet(t)
	want := resultWire(detect.Run(db, set.CFDs(), set.CINDs(), detect.Options{Parallel: 1}))
	if len(want) == 0 {
		t.Fatal("dirty bank produced no violations; test is vacuous")
	}
	for _, n := range []int{2, 4} {
		p, err := NewPlan(set, n)
		if err != nil {
			t.Fatal(err)
		}
		dbs, o := scatter(t, p, db)
		if got := mergeShards(t, p, o, dbs); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: merged stream diverges: %d vs %d violations", n, len(got), len(want))
		}
	}
}

// TestMergeFailsOnUnownedViolation: a shard streaming a constraint it does
// not own — one holding a stale full Σ — fails the merge, naming the
// shard, instead of being silently deduplicated.
func TestMergeFailsOnUnownedViolation(t *testing.T) {
	set, db := dirtyBank(t)
	p, err := NewPlan(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	dbs, o := scatter(t, p, db)
	stale := resultWire(detect.Run(dbs[1], set.CFDs(), set.CINDs(), detect.Options{Parallel: 1}))
	sources := []Source{&sliceSource{vs: detectOwned(p, 0, dbs[0])}, &sliceSource{vs: stale}}
	_, err = Merge(sources, ownedKeyOf(p, o), func(*stream.Violation) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "does not own") {
		t.Fatalf("Merge over a stale full-Σ shard: err = %v, want a shard 1 ownership error", err)
	}
}

// TestOrderKeyRejectsBadWitness: a witness whose width is not the driving
// relation's arity is an error, never an index panic.
func TestOrderKeyRejectsBadWitness(t *testing.T) {
	set, db := dirtyBank(t)
	p, err := NewPlan(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, o := scatter(t, p, db)
	for _, id := range []string{"phi2", "psi4"} { // a CFD and a CIND over checking
		for _, tc := range []struct {
			name    string
			witness []string
		}{
			{"short", []string{"001"}},
			{"long", []string{"001", "c", "a", "p", "NYC", "extra"}},
			{"empty", []string{}},
		} {
			t.Run(id+"/"+tc.name, func(t *testing.T) {
				v := stream.Violation{Constraint: id, Witness: [][]string{tc.witness}}
				_, err := o.Key(&v)
				if err == nil || !strings.Contains(err.Error(), "witness") {
					t.Fatalf("Key(%d-value witness) err = %v, want a witness-width error", len(tc.witness), err)
				}
				rec := recordOf(t, v)
				if _, rerr := o.RecordKey(&rec); rerr == nil || rerr.Error() != err.Error() {
					t.Fatalf("RecordKey(%d-value witness) err = %v, Key says %v", len(tc.witness), rerr, err)
				}
			})
		}
	}
}

// TestOrderKeyDoesNotAllocate pins the merges' per-violation key paths —
// Key over decoded violations, RecordKey over undecoded records — at zero
// allocations over every bank CFD and CIND violation, and pins RecordKey
// to Key's answer.
func TestOrderKeyDoesNotAllocate(t *testing.T) {
	set, db := dirtyBank(t)
	p, err := NewPlan(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, o := scatter(t, p, db)
	vs := resultWire(detect.Run(db, set.CFDs(), set.CINDs(), detect.Options{Parallel: 1}))
	kinds := map[string]bool{}
	for i := range vs {
		if _, err := o.Key(&vs[i]); err != nil {
			t.Fatal(err)
		}
		kinds[vs[i].Kind] = true
	}
	if len(kinds) != 2 {
		t.Fatalf("violation kinds %v, want both CFD and CIND", kinds)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := range vs {
			o.Key(&vs[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("Key allocates %.1f times per %d violations, want 0", allocs, len(vs))
	}
	recs := make([]stream.Record, len(vs))
	for i := range vs {
		recs[i] = recordOf(t, vs[i])
		want, _ := o.Key(&vs[i])
		if got, err := o.RecordKey(&recs[i]); err != nil || got != want {
			t.Fatalf("RecordKey(%+v) = %+v, %v; Key = %+v", vs[i], got, err, want)
		}
	}
	allocs = testing.AllocsPerRun(10, func() {
		for i := range recs {
			o.RecordKey(&recs[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("RecordKey allocates %.1f times per %d records, want 0", allocs, len(recs))
	}
}

// TestMergeAllocationIsConstant pins Merge's own allocations to a constant:
// merging ten times the violations costs no more allocations, so nothing
// escapes to the heap per violation.
func TestMergeAllocationIsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		vs := make([][]stream.Violation, 2)
		for i := 0; i < n; i++ {
			vs[i%2] = append(vs[i%2], stream.Violation{Row: i})
		}
		srcs := []*sliceSource{{vs: vs[0]}, {vs: vs[1]}}
		sources := []Source{srcs[0], srcs[1]}
		keyOf := func(_ int, v *stream.Violation) (detect.MergeKey, bool, error) {
			return detect.MergeKey{Seq: uint64(v.Row)}, true, nil
		}
		emitted := 0
		emit := func(*stream.Violation) bool { emitted++; return true }
		return testing.AllocsPerRun(20, func() {
			srcs[0].i, srcs[1].i, emitted = 0, 0, 0
			if _, err := Merge(sources, keyOf, emit); err != nil || emitted != n {
				t.Fatalf("merged %d of %d: %v", emitted, n, err)
			}
		})
	}
	small, large := allocs(100), allocs(1000)
	if large > small {
		t.Fatalf("Merge allocates %.0f times for 100 violations but %.0f for 1000, want a constant", small, large)
	}
}
