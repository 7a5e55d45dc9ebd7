package detect

import (
	"context"
	"sync"

	"cind/internal/cfd"
	"cind/internal/constraint"
	core "cind/internal/core"
	"cind/internal/instance"
	"cind/internal/types"
)

// Violation is the unified sum type over the two violation kinds: a CFD
// pair violation or a CIND inclusion violation. It is what the streaming
// API yields, so consumers handle mixed constraint sets through one value —
// discriminate with Kind, recover the constraint with Constraint, and the
// offending tuples with Witness; AsCFD/AsCIND expose the kind-specific
// detail.
type Violation struct {
	kind  constraint.Kind
	cfdV  cfd.Violation
	cindV core.Violation
}

// CFDViolation wraps a CFD violation in the unified type.
func CFDViolation(v cfd.Violation) Violation {
	return Violation{kind: constraint.KindCFD, cfdV: v}
}

// CINDViolation wraps a CIND violation in the unified type.
func CINDViolation(v core.Violation) Violation {
	return Violation{kind: constraint.KindCIND, cindV: v}
}

// Kind reports which constraint family was violated (zero for the zero
// Violation).
func (v Violation) Kind() constraint.Kind { return v.kind }

// Constraint returns the violated constraint, or nil for the zero
// Violation.
func (v Violation) Constraint() constraint.Constraint {
	switch v.kind {
	case constraint.KindCFD:
		return v.cfdV.CFD
	case constraint.KindCIND:
		return v.cindV.CIND
	}
	return nil
}

// ConstraintID returns the violated constraint's identifier (the name from
// the constraint file, e.g. "phi3"), or "" for the zero Violation. It is
// the stable label wire encodings key violations by.
func (v Violation) ConstraintID() string {
	switch v.kind {
	case constraint.KindCFD:
		return v.cfdV.CFD.ID
	case constraint.KindCIND:
		return v.cindV.CIND.ID
	}
	return ""
}

// Relation returns the relation the witness tuples belong to: the CFD's
// relation, or the CIND's LHS relation. "" for the zero Violation.
func (v Violation) Relation() string {
	switch v.kind {
	case constraint.KindCFD:
		return v.cfdV.CFD.Rel
	case constraint.KindCIND:
		return v.cindV.CIND.LHSRel
	}
	return ""
}

// Row returns the index of the pattern-tableau row the witness matches
// (0-based), or -1 for the zero Violation.
func (v Violation) Row() int {
	switch v.kind {
	case constraint.KindCFD:
		return v.cfdV.RowIdx
	case constraint.KindCIND:
		return v.cindV.RowIdx
	}
	return -1
}

// AsCFD returns the kind-specific CFD violation and whether the value holds
// one.
func (v Violation) AsCFD() (cfd.Violation, bool) {
	return v.cfdV, v.kind == constraint.KindCFD
}

// AsCIND returns the kind-specific CIND violation and whether the value
// holds one.
func (v Violation) AsCIND() (core.Violation, bool) {
	return v.cindV, v.kind == constraint.KindCIND
}

// Witness returns the offending tuples: {t1, t2} for a CFD violation (t1
// and t2 equal for single-tuple violations), {t} for a CIND violation.
func (v Violation) Witness() []instance.Tuple {
	switch v.kind {
	case constraint.KindCFD:
		return []instance.Tuple{v.cfdV.T1, v.cfdV.T2}
	case constraint.KindCIND:
		return []instance.Tuple{v.cindV.T}
	}
	return nil
}

// String renders "[cfd] ..." / "[cind] ..." using the kind-specific
// explanation.
func (v Violation) String() string {
	switch v.kind {
	case constraint.KindCFD:
		return "[cfd] " + v.cfdV.String()
	case constraint.KindCIND:
		return "[cind] " + v.cindV.String()
	}
	return "[no violation]"
}

// Each evaluates every constraint against the database through the batched
// engine and calls yield for each violation as it is found, instead of
// materialising the full report first — first-violation latency on dirty
// data is the cost of one detection group, not of enumerating every
// quadratic pair. Groups still fan out over the bounded worker pool
// (opts.Parallel), so arrival order interleaves across groups; within one
// group the order matches the batch engine. opts.Limit is ignored — the
// consumer governs how many violations it wants by returning false from
// yield, which stops the workers promptly (mid pair enumeration, mid index
// build) and is not an error. Each returns ctx.Err() when the context was
// cancelled before evaluation completed, nil otherwise; it does not return
// until every worker has exited, so no engine goroutine outlives the call.
func Each(ctx context.Context, db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND, opts Options, yield func(Violation) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := stopFunc(inner)
	done := inner.Done()

	coded, cfdGroups, cindGroups := plan(db, cfds, cinds, types.NewInterner())
	if err := ctx.Err(); err != nil {
		return err
	}

	units := make([]func(send func(Violation) bool), 0, len(cfdGroups)+len(cindGroups))
	for _, g := range cfdGroups {
		g := g
		units = append(units, func(send func(Violation) bool) {
			g.stream(coded, stop, func(_ int, v cfd.Violation) bool { return send(CFDViolation(v)) })
		})
	}
	for _, g := range cindGroups {
		g := g
		units = append(units, func(send func(Violation) bool) {
			g.stream(coded, stop, func(_ int, v core.Violation) bool { return send(CINDViolation(v)) })
		})
	}

	w := opts.workers(len(units))
	if w == 1 {
		// Sequential fast path: one worker draining the units in order is
		// behaviourally identical to the pool below — same violation
		// order, same cancellation promptness — minus the per-violation
		// channel handoff, which on a violation-dense database is most of
		// the streaming cost. yield runs on this goroutine.
		broke := false
		send := func(v Violation) bool {
			if broke || stop() || !yield(v) {
				broke = true
				cancel()
				return false
			}
			return true
		}
		for _, u := range units {
			if broke || stop() {
				break
			}
			u(send)
		}
		return ctx.Err()
	}

	// Workers hand violations to the consumer over ch; a send blocked on a
	// slow consumer unblocks on cancellation, so a consumer break never
	// strands a worker.
	ch := make(chan Violation)
	send := func(v Violation) bool {
		select {
		case ch <- v:
			return true
		case <-done:
			return false
		}
	}
	var wg sync.WaitGroup
	uch := make(chan func(send func(Violation) bool))
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for u := range uch {
				u(send)
			}
		}()
	}
	go func() {
		// Feed every unit unconditionally: after cancellation the workers
		// drain them in a few polls each, which is cheaper than a second
		// signalling path.
		for _, u := range units {
			uch <- u
		}
		close(uch)
	}()
	go func() {
		wg.Wait()
		close(ch)
	}()

	broke := false
	for v := range ch {
		if broke {
			continue // draining until the workers notice the cancel
		}
		if ctx.Err() != nil || !yield(v) {
			broke = true
			cancel()
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}
