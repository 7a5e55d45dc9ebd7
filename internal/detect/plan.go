package detect

import (
	"context"
	"slices"
	"sync/atomic"

	"cind/internal/cfd"
	"cind/internal/conc"
	"cind/internal/constraint"
	core "cind/internal/core"
	"cind/internal/instance"
	"cind/internal/types"
)

// Plan is the compiled form of one constraint set over one database
// snapshot: every referenced relation coded once, and the CFD and CIND
// detection groups compiled against those codes. The plan owns the rows
// it reports, so it keeps describing the snapshot it was built from after
// the database changes. Its compiled form is immutable once NewPlan
// returns, so any number of Run and Each calls may evaluate one plan
// concurrently without locks, and a caller may keep it across calls for
// as long as Current holds.
//
// A plan evaluates once: the first Run or Each that completes without a
// limit, cancellation or early break publishes its hits, and every later
// Run and Each replays them instead of running the units again. The
// report depends only on the snapshot, so a replay is the report. A
// Session's versions (Session.Plan) are published with their hits, so
// their units never run.
type Plan struct {
	units []unit
	slots []slotRef // report slot -> unit and member: CFDs, then CINDs
	ncfd  int       // slots below ncfd are CFDs
	deps  []planDep
	memo  atomic.Pointer[[][]hit] // per report slot; nil until published
}

// slotRef locates one constraint of the input inside the plan: units[u],
// member mi.
type slotRef struct{ u, mi int }

// planDep is one relation the plan coded, with the instance and the
// Version it was coded at.
type planDep struct {
	rel  string
	in   *instance.Instance
	next int64
	n    int
}

// hit is one violation of a group member as row ids into the plan's coded
// relations: the tableau row, and the witness rows (t1 == t2 for a
// single-tuple CFD violation; t2 unused for a CIND). Hits are
// pointer-free, so collected and buffered ones cost the garbage collector
// nothing to scan.
type hit struct{ row, t1, t2 int32 }

// unit is one detection group bound to a plan's coded relations — the
// unit of parallel evaluation.
type unit interface {
	// stream emits every violation of every member as it is found:
	// members in input order, each member's hits contiguous and in
	// reference order. emit returning false aborts the unit; stream
	// reports whether it ran to completion.
	stream(stop func() bool, emit func(mi int, h hit) bool) bool
	// members returns the number of constraints in the unit.
	members() int
	// slot returns member mi's position in report order.
	slot(mi int) int
	// maker returns member mi's violation builder.
	maker(mi int) maker
	// report appends member mi's hits to rep as typed violations.
	report(rep *Report, mi int, hs []hit)
	// frozen returns the unit bound to its coded relations' current rows.
	frozen() unit
}

// maker builds one member's violations from its hits, with the member's
// constraint and witness rows loaded once: each violation is built in
// place, with no interface call or copy per hit.
type maker struct {
	kind constraint.Kind
	cfd  *cfd.CFD
	cind *core.CIND
	rows []instance.Tuple
}

func (m *maker) violation(h hit) Violation {
	if m.kind == constraint.KindCFD {
		return Violation{kind: constraint.KindCFD, cfdV: cfd.Violation{CFD: m.cfd, RowIdx: int(h.row), T1: m.rows[h.t1], T2: m.rows[h.t2]}}
	}
	return Violation{kind: constraint.KindCIND, cindV: core.Violation{CIND: m.cind, RowIdx: int(h.row), T: m.rows[h.t1]}}
}

type cfdUnit struct {
	g  *cfdGroup
	cr *codedRel
}

func (u cfdUnit) stream(stop func() bool, emit func(mi int, h hit) bool) bool {
	return u.g.stream(u.cr, stop, emit)
}

func (u cfdUnit) members() int { return len(u.g.m) }

func (u cfdUnit) slot(mi int) int { return u.g.m[mi].idx }

func (u cfdUnit) cfd(mi int, h hit) cfd.Violation {
	return cfd.Violation{CFD: u.g.m[mi].c, RowIdx: int(h.row), T1: u.cr.tuples[h.t1], T2: u.cr.tuples[h.t2]}
}

func (u cfdUnit) maker(mi int) maker {
	return maker{kind: constraint.KindCFD, cfd: u.g.m[mi].c, rows: u.cr.tuples}
}

func (u cfdUnit) report(rep *Report, mi int, hs []hit) {
	for _, h := range hs {
		rep.CFD = append(rep.CFD, u.cfd(mi, h))
	}
}

func (u cfdUnit) frozen() unit {
	u.cr = u.cr.frozen()
	return u
}

type cindUnit struct {
	g    *cindGroup
	rhs  *codedRel
	lhs  []*codedRel // member -> coded LHS instance
	base int         // report slot of the first CIND: the number of CFDs
}

func (u cindUnit) stream(stop func() bool, emit func(mi int, h hit) bool) bool {
	return u.g.stream(u.rhs, u.lhs, stop, emit)
}

func (u cindUnit) members() int { return len(u.g.m) }

func (u cindUnit) slot(mi int) int { return u.base + u.g.m[mi].idx }

func (u cindUnit) cind(mi int, h hit) core.Violation {
	return core.Violation{CIND: u.g.m[mi].c, RowIdx: int(h.row), T: u.lhs[mi].tuples[h.t1]}
}

func (u cindUnit) maker(mi int) maker {
	return maker{kind: constraint.KindCIND, cind: u.g.m[mi].c, rows: u.lhs[mi].tuples}
}

func (u cindUnit) report(rep *Report, mi int, hs []hit) {
	for _, h := range hs {
		rep.CIND = append(rep.CIND, u.cind(mi, h))
	}
}

func (u cindUnit) frozen() unit {
	u.rhs, u.lhs = u.rhs.frozen(), slices.Clone(u.lhs)
	for mi, cr := range u.lhs {
		u.lhs[mi] = cr.frozen()
	}
	return u
}

// NewPlan codes every relation the constraints reference, sequentially and
// with one fresh interner, and compiles the detection groups against the
// codes. The interner is dropped on return: a plan keeps only codes, which
// is all evaluation compares, and its own copy of each relation's tuple
// slice (the tuples themselves are shared: Insert and Delete never mutate
// one).
func NewPlan(db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND) *Plan {
	p, _ := compile(db, cfds, cinds, types.NewInterner())
	return p
}

// compile is NewPlan over the caller's interner, returning the coded
// relations by name too: the incremental session keeps both, to code the
// tuples it appends to them.
func compile(db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND, it *types.Interner) (*Plan, map[string]*codedRel) {
	p := &Plan{slots: make([]slotRef, len(cfds)+len(cinds)), ncfd: len(cfds)}
	coded := map[string]*codedRel{}
	ensure := func(rel string) {
		if _, ok := coded[rel]; ok {
			return
		}
		in := db.Instance(rel)
		coded[rel] = codeRelation(in, it)
		next, n := in.Version()
		p.deps = append(p.deps, planDep{rel: rel, in: in, next: next, n: n})
	}
	for _, c := range cfds {
		ensure(c.Rel)
	}
	for _, c := range cinds {
		ensure(c.LHSRel)
		ensure(c.RHSRel)
	}
	for _, g := range planCFDs(db, cfds, it) {
		p.add(cfdUnit{g: g, cr: coded[g.rel]})
	}
	for _, g := range planCINDs(db, cinds, it) {
		u := cindUnit{g: g, rhs: coded[g.rhsRel], lhs: make([]*codedRel, len(g.m)), base: len(cfds)}
		for mi := range g.m {
			u.lhs[mi] = coded[g.m[mi].lhsRel]
		}
		p.add(u)
	}
	return p, coded
}

func (p *Plan) add(u unit) {
	for mi := 0; mi < u.members(); mi++ {
		p.slots[u.slot(mi)] = slotRef{u: len(p.units), mi: mi}
	}
	p.units = append(p.units, u)
}

// frozen returns the version of p whose report is hits: every unit bound
// to its coded relations' rows as they stand, which appends past them
// never change, and every dependency at its instance's current Version.
func (p *Plan) frozen(hits [][]hit) *Plan {
	v := &Plan{units: make([]unit, len(p.units)), slots: p.slots, ncfd: p.ncfd, deps: slices.Clone(p.deps)}
	for i, u := range p.units {
		v.units[i] = u.frozen()
	}
	for i := range v.deps {
		v.deps[i].next, v.deps[i].n = v.deps[i].in.Version()
	}
	v.memo.Store(&hits)
	return v
}

// Current reports whether the plan still describes db: every relation it
// coded is still db's instance of that name, at the Version it was coded
// at. The constraint set is the caller's to hold fixed.
func (p *Plan) Current(db *instance.Database) bool {
	for _, d := range p.deps {
		if next, n := d.in.Version(); db.Instance(d.rel) != d.in || next != d.next || n != d.n {
			return false
		}
	}
	return true
}

// Run evaluates the plan into the violation report, fanning the units out
// over the worker pool, or materialises it from the published hits when
// an earlier evaluation completed. Every evaluation unit polls ctx, so a
// cancelled run stops the pool promptly — mid pair enumeration, mid index
// build, mid anti-join scan — and returns ctx's error, discarding the
// partial result. A run without a Limit publishes its hits.
func (p *Plan) Run(ctx context.Context, opts Options) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out [][]hit
	if m := p.memo.Load(); m != nil {
		out = *m
	} else {
		stop := stopFunc(ctx)
		// Each unit appends only to its own members' slots, so the fan-out
		// is race-free by construction and the merge is deterministic.
		out = make([][]hit, len(p.slots))
		conc.ForEachIdx(opts.workers(len(p.units)), len(p.units), func(i int) {
			if stop() {
				return
			}
			u := p.units[i]
			u.stream(stop, collect(out, u, opts.Limit, stop))
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.Limit == 0 {
			p.memo.CompareAndSwap(nil, &out)
		}
	}

	// Cut the slots to the Limit prefix of their concatenation — in a new
	// slot list, as out may be the published hits (a limited run never
	// publishes its own) — size the report, then materialise it in slot
	// (report) order.
	if opts.Limit > 0 {
		cut, left := make([][]hit, len(out)), opts.Limit
		for s, hs := range out {
			cut[s] = hs[:min(len(hs), left)]
			left -= len(cut[s])
		}
		out = cut
	}
	ncfd, ncind := 0, 0
	for s, hs := range out {
		if s < p.ncfd {
			ncfd += len(hs)
		} else {
			ncind += len(hs)
		}
	}
	res := &Report{}
	if ncfd > 0 {
		res.CFD = make([]cfd.Violation, 0, ncfd)
	}
	if ncind > 0 {
		res.CIND = make([]core.Violation, 0, ncind)
	}
	for s, hs := range out {
		ref := p.slots[s]
		p.units[ref.u].report(res, ref.mi, hs)
	}
	return res, nil
}

// collect is the batch consumer of a unit: it appends each hit to its
// member's slot of out and aborts the unit once that slot holds limit hits.
// Aborting is exact because a unit's members are in input order, so every
// later member of the unit lands past the limit prefix of the concatenated
// report. stop is polled every 256 hits of a slot, so cancellation
// interrupts even a quadratic dirty bucket; a stopped unit leaves partial
// slots behind, which the caller discards.
func collect(out [][]hit, u unit, limit int, stop func() bool) func(mi int, h hit) bool {
	return func(mi int, h hit) bool {
		s := u.slot(mi)
		out[s] = append(out[s], h)
		n := len(out[s])
		if limit > 0 && n >= limit {
			return false
		}
		return n&255 != 0 || !stop()
	}
}
