package detect

import (
	"context"
	"sync"

	"cind/internal/cfd"
	"cind/internal/constraint"
	core "cind/internal/core"
	"cind/internal/instance"
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
// engine — a fresh Plan, evaluated by Plan.Each — and calls yield for each
// violation as it is found.
func Each(ctx context.Context, db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND, opts Options, yield func(Violation) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return NewPlan(db, cfds, cinds).Each(ctx, opts, yield)
}

// Each evaluates the plan and calls yield for each violation as it is
// found, instead of materialising the full report first — first-violation
// latency on dirty data is the cost of one detection group, not of
// enumerating every quadratic pair.
//
// At one worker (opts.Parallel 1, or a plan with a single group) the stream
// is the report, violation for violation: see inOrder. With more workers
// the groups fan out over the bounded pool, so arrival order interleaves
// across groups; within one group the order still matches the report.
//
// opts.Limit is ignored — the consumer governs how many violations it wants
// by returning false from yield, which stops the workers promptly (mid pair
// enumeration, mid index build) and is not an error. Each returns ctx.Err()
// when the context was cancelled before evaluation completed, nil
// otherwise; it does not return until every worker has exited, so no engine
// goroutine outlives the call.
func (p *Plan) Each(ctx context.Context, opts Options, yield func(Violation) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := stopFunc(inner)
	done := inner.Done()

	w := opts.workers(len(p.units))
	if w == 1 {
		// yield runs on this goroutine, with no per-violation channel
		// handoff — on a violation-dense database that handoff is most of
		// the streaming cost.
		broke := false
		send := func(v Violation) bool {
			if broke || stop() || !yield(v) {
				broke = true
				cancel()
				return false
			}
			return true
		}
		p.inOrder(stop, send)
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
	uch := make(chan unit)
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for u := range uch {
				u.stream(stop, func(mi int, h hit) bool { return send(u.violation(mi, h)) })
			}
		}()
	}
	go func() {
		// Feed every unit unconditionally: after cancellation the workers
		// drain them in a few polls each, which is cheaper than a second
		// signalling path.
		for _, u := range p.units {
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
	return ctx.Err()
}

// inOrder is the one-worker evaluation, in report order. It walks the
// report slots and runs each unit when its first member's slot comes up,
// streaming that member live; the unit's later members are held as hits
// until their own slots come up. A unit's members are in input order, so
// its first member always has its lowest slot. send returning false, or
// stop firing, ends the walk.
func (p *Plan) inOrder(stop func() bool, send func(Violation) bool) {
	held := make([][]hit, len(p.slots))
	for s, ref := range p.slots {
		u := p.units[ref.u]
		if ref.mi > 0 {
			for _, h := range held[s] {
				if !send(u.violation(ref.mi, h)) {
					return
				}
			}
			held[s] = nil
			continue
		}
		if stop() {
			return
		}
		if !u.stream(stop, func(mi int, h hit) bool {
			if mi == 0 {
				return send(u.violation(0, h))
			}
			t := u.slot(mi)
			held[t] = append(held[t], h)
			return len(held[t])&255 != 0 || !stop()
		}) {
			return
		}
	}
}
