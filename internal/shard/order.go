package shard

import (
	"encoding/binary"
	"fmt"
	"sort"

	cind "cind"

	"cind/internal/detect"
	"cind/internal/stream"
	"cind/internal/types"
)

// Order mirrors, router-side, the tuple ordering a single node's instances
// would hold: every live tuple's insertion rank (instances keep insertion
// order, and deletes preserve the survivors' order) and, per CFD X set,
// each projection group's set of live ranks. That is exactly the state
// needed to reconstruct a detect.MergeKey for any wire violation:
//
//   - a CIND violation's rank is its witness tuple's insertion rank;
//   - a CFD violation's rank is its X group's first-seen scan rank, i.e.
//     the minimum live rank among the group's members — which deletions
//     can advance, hence the per-group rank lists rather than a frozen
//     first-insert rank.
//
// Order is not safe for concurrent use; the router serializes mutations
// against gathers with its per-dataset lock, the same reader/writer
// discipline a single-node Checker documents.
type Order struct {
	plan *Plan
	next map[string]uint64
	seqs map[string]map[string]uint64
	// groups[x] maps a projection key of xset x to the sorted live ranks
	// of the group's members.
	groups []map[string][]uint64
}

// NewOrder returns an empty tracker for the plan's constraint set.
func NewOrder(p *Plan) *Order {
	o := &Order{
		plan:   p,
		next:   make(map[string]uint64),
		seqs:   make(map[string]map[string]uint64),
		groups: make([]map[string][]uint64, len(p.xsets)),
	}
	for _, rel := range p.set.Schema().Relations() {
		o.seqs[rel.Name()] = make(map[string]uint64)
	}
	for i := range o.groups {
		o.groups[i] = make(map[string][]uint64)
	}
	return o
}

// Len returns the live tuple count of rel.
func (o *Order) Len(rel string) int { return len(o.seqs[rel]) }

// Insert records a tuple insertion. It reports whether the tuple was new —
// false reproduces the instance's set semantics (a duplicate insert is a
// no-op and must not consume a rank).
func (o *Order) Insert(rel string, t cind.Tuple) bool {
	key := types.TupleKey(t)
	m := o.seqs[rel]
	if _, dup := m[key]; dup {
		return false
	}
	seq := o.next[rel]
	o.next[rel] = seq + 1
	m[key] = seq
	for _, xs := range o.plan.relXsets[rel] {
		pk := projKey(t, o.plan.xsets[xs].cols)
		// seq is monotone, so appending keeps the rank list sorted.
		o.groups[xs][pk] = append(o.groups[xs][pk], seq)
	}
	return true
}

// Delete records a tuple deletion. It reports whether the tuple was live
// (an absent delete is a no-op, mirroring the instance).
func (o *Order) Delete(rel string, t cind.Tuple) bool {
	key := types.TupleKey(t)
	m := o.seqs[rel]
	seq, ok := m[key]
	if !ok {
		return false
	}
	delete(m, key)
	for _, xs := range o.plan.relXsets[rel] {
		pk := projKey(t, o.plan.xsets[xs].cols)
		g := o.groups[xs][pk]
		i := sort.Search(len(g), func(i int) bool { return g[i] >= seq })
		if i < len(g) && g[i] == seq {
			g = append(g[:i], g[i+1:]...)
		}
		if len(g) == 0 {
			delete(o.groups[xs], pk)
		} else {
			o.groups[xs][pk] = g
		}
	}
	return true
}

// Apply records one delta's effect and reports whether it changed
// anything.
func (o *Order) Apply(d cind.Delta) bool {
	if d.Op == detect.OpInsert {
		return o.Insert(d.Rel, d.Tuple)
	}
	return o.Delete(d.Rel, d.Tuple)
}

// Key reconstructs the violation's position in the global report order.
// The violation's witness tuples must be live in the tracked state — for a
// delta diff's removed side, call Key before applying the batch to the
// tracker; for the added side and for violation streams, after.
//
// Key does not allocate for keys that fit its stack buffer: it encodes
// the lookup key straight from the wire witness. It keeps no scratch
// state, so concurrent gathers may call it under a shared lock.
func (o *Order) Key(v *stream.Violation) (detect.MergeKey, error) {
	ci, ok := o.plan.cons[v.Constraint]
	if !ok {
		return detect.MergeKey{}, fmt.Errorf("shard: violation names unknown constraint %q", v.Constraint)
	}
	if len(v.Witness) == 0 {
		return detect.MergeKey{}, errNoWitness(ci)
	}
	w := v.Witness[0]
	if len(w) != ci.arity {
		return detect.MergeKey{}, errWidth(ci, len(w))
	}
	var scratch [128]byte
	b := scratch[:0]
	if ci.xs >= 0 {
		for _, c := range o.plan.xsets[ci.xs].cols {
			b = types.AppendKey(b, types.C(w[c]))
		}
	} else {
		for _, s := range w {
			b = types.AppendKey(b, types.C(s))
		}
	}
	return o.lookup(ci, v.Row, b)
}

// RecordKey is Key for an undecoded binary record: it builds the same
// lookup key from the record's witness bytes — a constant's AppendKey
// form is its wire bytes behind a tag — and shares Key's lookup, so it
// neither decodes nor allocates.
func (o *Order) RecordKey(r *stream.Record) (detect.MergeKey, error) {
	ci, ok := o.plan.cons[string(r.Constraint())]
	if !ok {
		return detect.MergeKey{}, fmt.Errorf("shard: violation names unknown constraint %q", r.Constraint())
	}
	w := r.Witness()
	if w == nil {
		return detect.MergeKey{}, errNoWitness(ci)
	}
	// The record is validated, so its counts and lengths are in bounds.
	arity, off := binary.Uvarint(w)
	if arity != uint64(ci.arity) {
		return detect.MergeKey{}, errWidth(ci, int(arity))
	}
	// One pass over the values: a CIND keys on all of them, a CFD on its
	// X columns, which the plan keeps sorted.
	all, cols := ci.xs < 0, []int(nil)
	if !all {
		cols = o.plan.xsets[ci.xs].cols
	}
	var scratch [128]byte
	b := scratch[:0]
	for i := 0; i < ci.arity && (all || len(cols) > 0); i++ {
		n, k := binary.Uvarint(w[off:])
		val := w[off+k : off+k+int(n)]
		off += k + int(n)
		if all || cols[0] == i {
			b = types.AppendConstKey(b, val)
			if !all {
				cols = cols[1:]
			}
		}
	}
	return o.lookup(ci, r.Row(), b)
}

// lookup is Key's and RecordKey's shared tail: the merge key of a
// violation of ci at row whose lookup key — the AppendKey form of its
// witness's X projection for a CFD, of the whole witness for a CIND — is
// b.
func (o *Order) lookup(ci *conInfo, row int, b []byte) (detect.MergeKey, error) {
	k := detect.MergeKey{Kind: ci.kind, Constraint: ci.idx, Row: row}
	if ci.xs >= 0 {
		g := o.groups[ci.xs][string(b)]
		if len(g) == 0 {
			return detect.MergeKey{}, fmt.Errorf("shard: violation of %q references an untracked %s group", ci.id, ci.rel)
		}
		k.Seq = g[0]
		return k, nil
	}
	seq, ok := o.seqs[ci.rel][string(b)]
	if !ok {
		return detect.MergeKey{}, fmt.Errorf("shard: violation of %q references an untracked %s tuple", ci.id, ci.rel)
	}
	k.Seq = seq
	return k, nil
}

func errNoWitness(ci *conInfo) error {
	return fmt.Errorf("shard: violation of %q carries no witness", ci.id)
}

func errWidth(ci *conInfo, n int) error {
	return fmt.Errorf("shard: violation of %q carries a %d-value witness, want %s's %d", ci.id, n, ci.rel, ci.arity)
}

// projKey builds the injective projection key of t on cols.
func projKey(t cind.Tuple, cols []int) string {
	b := make([]byte, 0, 32)
	for _, c := range cols {
		b = types.AppendKey(b, t[c])
	}
	return string(b)
}
