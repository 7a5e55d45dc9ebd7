package detect

import (
	"fmt"

	"cind/internal/instance"
	"cind/internal/types"
)

// Op is the kind of a tuple-level delta.
type Op uint8

const (
	// OpInsert adds a tuple to a relation (set semantics: inserting a
	// tuple already present is a no-op).
	OpInsert Op = iota + 1
	// OpDelete removes a tuple from a relation (deleting an absent tuple
	// is a no-op).
	OpDelete
)

// String renders the op as the delta-log sigil.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "+"
	case OpDelete:
		return "-"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Delta is one tuple-level change to a database: an insert or delete of a
// single tuple in a named relation. Deltas are the unit the incremental
// Session consumes; a batch of deltas is applied atomically with respect to
// the reported Diff.
type Delta struct {
	Op    Op
	Rel   string
	Tuple instance.Tuple
}

// Ins builds an insert delta.
func Ins(rel string, t instance.Tuple) Delta { return Delta{Op: OpInsert, Rel: rel, Tuple: t} }

// Del builds a delete delta.
func Del(rel string, t instance.Tuple) Delta { return Delta{Op: OpDelete, Rel: rel, Tuple: t} }

// String renders "+rel(a, b)" / "-rel(a, b)".
func (d Delta) String() string { return d.Op.String() + d.Rel + d.Tuple.String() }

// Diff is the net effect of one Apply batch on the violation report:
// Added holds the violations present after the batch but not before,
// Removed the ones present before but not after. The two are disjoint —
// a violation destroyed and re-created within one batch cancels out — and
// each side is deterministically ordered (constraints in input order,
// tableau rows in order, tuples in instance order).
type Diff struct {
	Added   Report
	Removed Report
}

// Empty reports whether the batch left the violation report unchanged.
func (d *Diff) Empty() bool { return d.Added.Total() == 0 && d.Removed.Total() == 0 }

// String renders a one-line summary.
func (d *Diff) String() string {
	return fmt.Sprintf("+%d -%d violations", d.Added.Total(), d.Removed.Total())
}

// tupleKey encodes a tuple for identity comparison via the shared
// types.TupleKey encoder (length-prefixed, variable/constant namespaces
// disjoint), so concatenated encodings stay uniquely decodable.
func tupleKey(t instance.Tuple) string { return types.TupleKey(t) }
