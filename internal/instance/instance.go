// Package instance implements database instances (Section 2) and the
// database templates with variables used by the chase (Section 5.1).
//
// An Instance is a *set* of tuples over one relation schema; a Database
// collects one instance per relation. Tuples may contain chase variables;
// a database is "ground" when no tuple does. The chase needs one global
// operation beyond plain storage: substituting a variable by another value
// everywhere in the database (the effect of the FD(φ) operation), which can
// merge tuples — set semantics make the merge automatic.
package instance

import (
	"fmt"
	"sort"
	"strings"

	"cind/internal/schema"
	"cind/internal/types"
)

// Tuple is a value tuple positionally aligned with its relation's attributes.
type Tuple []types.Value

// Const returns the constant value holding v — a zero-allocation shorthand
// for data loaders that fill tuples field by field.
func Const(v string) types.Value { return types.C(v) }

// Consts builds a ground tuple from constants — the common case in tests
// and data loading.
func Consts(vals ...string) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = types.C(v)
	}
	return t
}

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Eq reports field-wise value equality.
func (t Tuple) Eq(other Tuple) bool {
	if len(t) != len(other) {
		return false
	}
	for i := range t {
		if !t[i].Eq(other[i]) {
			return false
		}
	}
	return true
}

// IsGround reports whether the tuple holds no chase variables.
func (t Tuple) IsGround() bool {
	for _, v := range t {
		if v.IsVar() {
			return false
		}
	}
	return true
}

// Project returns the values at the given positions.
func (t Tuple) Project(idx []int) []types.Value {
	out := make([]types.Value, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// key encodes the tuple for set membership via the shared types.TupleKey
// encoder, which keeps constants and variables in disjoint namespaces so a
// constant "v1" never collides with variable v1.
func (t Tuple) key() string { return types.TupleKey(t) }

// String renders "(a, b, v1)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Instance is a set of tuples over one relation schema. Tuples are kept in
// insertion order; the set index maps tuple keys to monotone sequence
// numbers rather than positions, so a delete never has to rewrite the
// index entries of the tuples behind it.
type Instance struct {
	rel     *schema.Relation
	tuples  []Tuple
	seqs    []int64          // parallel to tuples, strictly increasing
	index   map[string]int64 // tuple key -> sequence number
	nextSeq int64
}

// NewInstance returns an empty instance of the relation.
func NewInstance(rel *schema.Relation) *Instance {
	return &Instance{rel: rel, index: make(map[string]int64)}
}

// Relation returns the relation schema of the instance.
func (in *Instance) Relation() *schema.Relation { return in.rel }

// Len returns the number of (distinct) tuples.
func (in *Instance) Len() int { return len(in.tuples) }

// Tuples returns the tuples in insertion order. Callers must not mutate
// the slice structure; tuple contents are owned by the instance.
func (in *Instance) Tuples() []Tuple { return in.tuples }

// Version fingerprints the instance contents for cache invalidation: the
// pair changes on every Insert and Delete (nextSeq only grows, and a
// delete shrinks the length without changing nextSeq), and reindex — run
// by chase-style variable substitution — reassigns fresh sequence numbers,
// so equal pairs imply a structure built from an earlier snapshot is still
// current. It has three users: internal/sqlbackend skips re-ingesting
// unchanged relations into its SQL mirror; a Checker keeps its detection
// plan (detect.Plan) — the relations' coded form — across reads while
// every referenced relation's pair is unchanged; and the chase
// (internal/chase) skips a CFD's FD pass while its relation still has the
// pair it had after that CFD's last pass that changed nothing.
func (in *Instance) Version() (nextSeq int64, n int) {
	return in.nextSeq, len(in.tuples)
}

// Insert adds the tuple if not already present and reports whether it was
// added. The tuple length must match the relation arity.
func (in *Instance) Insert(t Tuple) bool {
	if len(t) != in.rel.Arity() {
		panic(fmt.Sprintf("instance: tuple %v has arity %d, relation %s wants %d",
			t, len(t), in.rel.Name(), in.rel.Arity()))
	}
	k := t.key()
	if _, dup := in.index[k]; dup {
		return false
	}
	in.index[k] = in.nextSeq
	in.seqs = append(in.seqs, in.nextSeq)
	in.nextSeq++
	in.tuples = append(in.tuples, t)
	return true
}

// InsertConsts is Insert(Consts(...)) for readable test setup.
func (in *Instance) InsertConsts(vals ...string) bool {
	return in.Insert(Consts(vals...))
}

// Delete removes the tuple if present and reports whether it was removed.
// The remaining tuples keep their relative insertion order — the order
// detection results are reported in — so a delete behaves exactly like the
// tuple had never been inserted, except that a later re-insert appends at
// the end. Because the index maps keys to sequence numbers, the cost is a
// binary search plus one slice compaction; no other index entry changes.
func (in *Instance) Delete(t Tuple) bool {
	k := t.key()
	seq, ok := in.index[k]
	if !ok {
		return false
	}
	delete(in.index, k)
	pos := sort.Search(len(in.seqs), func(i int) bool { return in.seqs[i] >= seq })
	copy(in.tuples[pos:], in.tuples[pos+1:])
	in.tuples[len(in.tuples)-1] = nil
	in.tuples = in.tuples[:len(in.tuples)-1]
	copy(in.seqs[pos:], in.seqs[pos+1:])
	in.seqs = in.seqs[:len(in.seqs)-1]
	return true
}

// DeleteConsts is Delete(Consts(...)) for readable test setup.
func (in *Instance) DeleteConsts(vals ...string) bool {
	return in.Delete(Consts(vals...))
}

// Contains reports whether the exact tuple is present.
func (in *Instance) Contains(t Tuple) bool {
	_, ok := in.index[t.key()]
	return ok
}

// IsGround reports whether every tuple is ground.
func (in *Instance) IsGround() bool {
	for _, t := range in.tuples {
		if !t.IsGround() {
			return false
		}
	}
	return true
}

// substituteVar replaces every occurrence of the variable id by val,
// re-indexing (and possibly merging) tuples. Reports whether anything
// changed.
func (in *Instance) substituteVar(id int64, val types.Value) bool {
	changed := false
	for _, t := range in.tuples {
		for i, v := range t {
			if v.IsVar() && v.VarID() == id {
				t[i] = val
				changed = true
			}
		}
	}
	if changed {
		in.reindex()
	}
	return changed
}

// reindex rebuilds the set index after in-place tuple mutation, collapsing
// duplicates that the mutation may have created. Sequence numbers are
// reassigned fresh (relative order is preserved, which is all callers
// depend on).
func (in *Instance) reindex() {
	kept := in.tuples[:0]
	in.seqs = in.seqs[:0]
	in.index = make(map[string]int64, len(in.tuples))
	for _, t := range in.tuples {
		k := t.key()
		if _, dup := in.index[k]; dup {
			continue
		}
		in.index[k] = in.nextSeq
		in.seqs = append(in.seqs, in.nextSeq)
		in.nextSeq++
		kept = append(kept, t)
	}
	in.tuples = kept
}

// Reset removes every tuple, keeping the relation binding — used by
// repair to swap in a rebuilt tuple set.
func (in *Instance) Reset() {
	in.tuples = nil
	in.seqs = nil
	in.index = make(map[string]int64)
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	cp := NewInstance(in.rel)
	for _, t := range in.tuples {
		cp.Insert(t.Clone())
	}
	return cp
}

// String renders the instance with one tuple per line, sorted for stable
// output.
func (in *Instance) String() string {
	lines := make([]string, len(in.tuples))
	for i, t := range in.tuples {
		lines[i] = "  " + t.String()
	}
	sort.Strings(lines)
	return in.rel.Name() + " {\n" + strings.Join(lines, "\n") + "\n}"
}
