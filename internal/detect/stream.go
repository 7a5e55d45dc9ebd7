package detect

import (
	"context"
	"sync"
	"sync/atomic"

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

// Each evaluates the plan and calls yield for each violation as it is
// found, instead of materialising the full report first. The stream is the
// report, violation for violation, at every worker count: a consumer that
// stops after n violations has seen exactly the report's first n, which is
// what Limit would have kept. First-violation latency is the cost of the
// units whose report slots come before the first violating one, not of
// enumerating every quadratic pair.
//
// The calling goroutine is the consumer: it walks the report slots and,
// at a unit's first member, runs the unit itself when no helper has
// claimed it yet, streaming that member live. With more than one worker
// (opts.Parallel), that many helpers claim units ahead of it in plan order
// and publish their hits to per-slot feeds in chunks, which the consumer
// drains as they arrive — one lock per chunk, not one handoff per
// violation. A unit's later members are published the same way and
// drained when their own slots come up.
//
// opts.Limit is ignored — the consumer governs how many violations it wants
// by returning false from yield, which stops the helpers promptly (mid pair
// enumeration, mid index build) and is not an error. Each returns ctx.Err()
// when the context was cancelled before evaluation completed, nil
// otherwise; it does not return until every helper has exited, so no engine
// goroutine outlives the call. Helpers never wait on the consumer, so their
// feeds hold at most the report's hits, which is what Run buffers.
//
// A stream the consumer drained to its end, uncancelled, publishes its
// hits as Run does. Once a plan's hits are published, Each replays them
// in report order on the calling goroutine, polling ctx before each
// violation, and starts no helpers.
func (p *Plan) Each(ctx context.Context, opts Options, yield func(Violation) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if m := p.memo.Load(); m != nil {
		stop := stopFunc(ctx)
		for s, hs := range *m {
			ref := p.slots[s]
			mk := p.units[ref.u].maker(ref.mi)
			for _, h := range hs {
				if stop() || !yield(mk.violation(h)) {
					return ctx.Err() // nil when the consumer broke off
				}
			}
		}
		return nil
	}
	inner, cancel := context.WithCancel(ctx)
	stop := stopFunc(inner)
	f := newFeeds(len(p.slots))
	claimed := make([]atomic.Bool, len(p.units))
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	if w := opts.workers(len(p.units)); w > 1 {
		var next atomic.Int64
		wg.Add(w)
		for range w {
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(p.units) && !stop(); i = int(next.Add(1) - 1) {
					if claimed[i].CompareAndSwap(false, true) {
						f.run(p.units[i], stop, nil)
					}
				}
			}()
		}
	}

	out := make([][]hit, len(p.slots)) // what the consumer was sent
	for s, ref := range p.slots {
		u, mi := p.units[ref.u], ref.mi
		mk := u.maker(mi)
		send := func(h hit) bool {
			if stop() || !yield(mk.violation(h)) {
				cancel()
				return false
			}
			out[s] = append(out[s], h)
			return true
		}
		var ok bool
		if mi == 0 && claimed[ref.u].CompareAndSwap(false, true) {
			ok = f.run(u, stop, send)
		} else {
			ok = f.drain(s, send)
		}
		if !ok || stop() {
			return ctx.Err()
		}
	}
	p.memo.CompareAndSwap(nil, &out)
	return nil
}

// feedChunk is how many hits a unit's runner publishes to a report slot at
// once: the consumer pays one lock per chunk, not one handoff per
// violation, and a runner polls for cancellation once per chunk.
const feedChunk = 256

// feeds hands hits from the goroutines running units to Each's consumer,
// one feed per report slot. One lock guards every feed: it is taken once
// per chunk, and the consumer is the only goroutine that ever waits.
type feeds struct {
	mu    sync.Mutex
	ready sync.Cond
	slots []feed
}

// feed is one report slot's published hits: the chunks the consumer has not
// taken yet, and whether the slot's member has emitted its last hit.
type feed struct {
	chunks [][]hit
	done   bool
}

func newFeeds(slots int) *feeds {
	f := &feeds{slots: make([]feed, slots)}
	f.ready.L = &f.mu
	return f
}

// publish appends chunk, when it holds any hits, to slot s's feed, and
// marks the slot finished when done: a slot's last publish is its only
// done one.
func (f *feeds) publish(s int, chunk []hit, done bool) {
	f.mu.Lock()
	fd := &f.slots[s]
	if len(chunk) > 0 {
		fd.chunks = append(fd.chunks, chunk)
	}
	fd.done = done
	f.mu.Unlock()
	f.ready.Signal()
}

// drain passes slot s's hits to send, in order, as they are published. It
// reports true once the slot is finished and drained, false as soon as send
// does.
func (f *feeds) drain(s int, send func(hit) bool) bool {
	for {
		f.mu.Lock()
		fd := &f.slots[s]
		for len(fd.chunks) == 0 && !fd.done {
			f.ready.Wait()
		}
		chunks, done := fd.chunks, fd.done
		fd.chunks = nil
		f.mu.Unlock()
		for _, c := range chunks {
			for _, h := range c {
				if !send(h) {
					return false
				}
			}
		}
		if done {
			return true
		}
	}
}

// run evaluates u on the calling goroutine. Member 0's hits go to first
// when it is non-nil — the consumer running a unit inline streams that
// member live — and every other hit is published to its member's feed in
// chunks. A unit emits its members in order, so a member's slot is
// finished as soon as the unit moves past it, and every slot of u is
// finished when run returns, whether u completed or aborted. run reports
// whether u ran to completion.
func (f *feeds) run(u unit, stop func() bool, first func(hit) bool) bool {
	cur := 0
	var buf []hit
	flush := func(done bool) {
		f.publish(u.slot(cur), buf, done)
		buf = nil
	}
	ok := u.stream(stop, func(mi int, h hit) bool {
		for ; cur < mi; cur++ {
			flush(true)
		}
		if mi == 0 && first != nil {
			return first(h)
		}
		if buf == nil {
			buf = make([]hit, 0, feedChunk)
		}
		if buf = append(buf, h); len(buf) < feedChunk {
			return true
		}
		flush(false)
		return !stop()
	})
	for ; cur < u.members(); cur++ {
		flush(true)
	}
	return ok
}
