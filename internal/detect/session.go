package detect

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"cind/internal/cfd"
	core "cind/internal/core"
	"cind/internal/instance"
	"cind/internal/types"
)

// Session is a long-lived incremental violation detector: it is fed
// tuple-level deltas through Apply and maintains the violation report of
// the batch engine under them in time proportional to the affected
// projection groups, instead of re-running detection from scratch after
// every write.
//
// The session is built from a Plan's parts — the same coded relations and
// compiled groups — and keeps them resident:
//
//   - one interner and one coded relation per referenced relation, both
//     growing append-only (a delete drops its row from every group; the
//     row's codes stay valid so keyGroups representatives never dangle);
//   - per (relation, X) CFD group, the X-projection buckets plus each
//     bucket's current violating pairs, recomputed once per batch, and only
//     for the buckets the batch's tuples project into;
//   - per (RHS relation, Y) CIND group, the demanded-key slots with a
//     per-(tableau row, slot) count of satisfying RHS tuples and the
//     matching LHS tuples per slot — so both delta directions are O(slot):
//     an insert on the RHS relation can cure violations (count 0 → 1) and
//     a delete can create them (count 1 → 0), exactly mirroring the
//     anti-join of the batch engine.
//
// Apply also mutates the underlying *instance.Database, so at every point
// the session's version (Plan) reports what detect.Run over the current
// database does — violation for violation, in the same order — a property
// the package's differential stream tests drive over randomized delta
// scripts. Callers must not mutate the database behind the session's back.
//
// A Session has no lock of its own: Apply must not run concurrently with
// any other call. Between Applies, any number of goroutines may call Plan
// and Report; the first publishes the version, and the plan it returns is
// immutable and keeps reporting that version after later Applies. The
// returned Report and Diff values are immutable snapshots; callers must
// not modify them.
type Session struct {
	db    *instance.Database
	cfds  []*cfd.CFD
	cinds []*core.CIND

	it    *types.Interner
	plan  *Plan                // compiled over rels, which Apply grows
	rels  map[string]*codedRel // relation -> its resident coded rows
	byRel map[string]*relState // relation -> its live rows and watchers

	cfdStates  []*cfdState
	cindStates []*cindState
	pairs      int // violating pairs bucket recomputation has enumerated

	// events accumulates the net violation changes of the running Apply
	// batch, keyed by public violation identity so that a violation
	// destroyed and re-created within one batch cancels out. It is nil
	// outside Apply, which mutes the events of seeding.
	events map[string]*vioEvent

	// version is the current version's plan, published by the first Plan
	// call after an Apply that changed the database.
	version atomic.Pointer[Plan]
}

// relState is one coded relation's routing state: its live rows by tuple
// key, and the resident groups each of its rows is routed to.
type relState struct {
	rowOf map[string]int32 // tuple key -> live row
	cfds  []*cfdState      // CFD groups over the relation
	rhs   []*cindState     // CIND groups the relation supplies
	lhs   []*workState     // anti-join works demanding from the relation
}

// cfdBucket is the resident state of one X-projection group: its live rows
// in scan order, the row that created it, whose X projection every row
// shares, and per (member, tableau row) the violating pairs as hits (t1 ==
// t2 for single-tuple violations) as of the last batch end.
type cfdBucket struct {
	rows    []int32 // live rows, ascending (== scan order)
	rep     int32
	viols   [][]hit // flat (member, tableau row) -> pairs
	touched bool    // rows changed in the running batch
}

// cfdState is one CFD detection group kept resident: the group plan, its
// relation, and the mutable X-projection index (kg assigns bucket ordinals,
// buckets hold per-bucket state; ordinals are stable until compaction even
// when a bucket empties).
type cfdState struct {
	g       *cfdGroup
	cr      *codedRel
	kg      keyGroups
	buckets []*cfdBucket
	touched []int32 // buckets to recompute at the batch's end
	flatOff []int   // member -> offset of its (member, row) flat indices
	nFlat   int
}

// workState is one (CIND member, tableau row) anti-join kept resident.
type workState struct {
	st    *cindState
	m     *cindMember
	ri    int
	lhs   *codedRel
	rows  []int32           // matching LHS rows, ascending (== scan order)
	slots []int32           // parallel: demanded-key slot per matching row
	byKey map[int32][]int32 // slot -> matching LHS rows, ascending
	sat   []int32           // slot -> count of live RHS tuples satisfying it
}

func (w *workState) satisfied(slot int32) bool {
	return int(slot) < len(w.sat) && w.sat[slot] > 0
}

// cindState is one CIND detection group kept resident. kg spans both key
// directions, exactly like the batch anti-join: LHS inserts demand X
// projections, RHS tuples supply Y projections, and equal code sequences
// share a slot.
type cindState struct {
	g     *cindGroup
	rhs   *codedRel
	kg    keyGroups
	works []workState
}

// NewSession plans the constraints once (sharing the batch engine's
// grouping), seeds the resident indexes from the database's current
// contents, and returns a session whose Report already reflects the initial
// state. The database handle is retained: Apply mutates it.
func NewSession(db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND) *Session {
	s, _ := NewSessionContext(context.Background(), db, cfds, cinds)
	return s
}

// NewSessionContext is NewSession with cooperative cancellation of the
// seeding pass — the one full-database pass a session ever pays. Seeding
// only reads the database, so a cancelled build is abandoned without
// side effects and ctx's error returned.
func NewSessionContext(ctx context.Context, db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND) (*Session, error) {
	s := &Session{db: db, cfds: cfds, cinds: cinds}
	if !s.seed(stopFunc(ctx)) {
		return nil, ctx.Err()
	}
	return s, nil
}

// seed (re)builds every resident structure from the database: it codes and
// compiles through the Plan constructor, then runs one muted batch over
// every coded row, relation by relation in scan order. Rows are routed 8192
// at a time, as routed one by one the groups' tables evict each other from
// the cache. stop is polled per run and per bucket; seed reports false
// once it fires.
func (s *Session) seed(stop func() bool) bool {
	// One poll before planning: constraint plans are O(|Σ| × rows), so a
	// context already cancelled on entry skips the whole build.
	if stop() {
		return false
	}
	s.it = types.NewInterner()
	s.plan, s.rels = compile(s.db, s.cfds, s.cinds, s.it)
	s.cfdStates, s.cindStates = nil, nil
	s.byRel = make(map[string]*relState, len(s.plan.deps))
	for _, d := range s.plan.deps {
		s.byRel[d.rel] = &relState{rowOf: make(map[string]int32, len(s.rels[d.rel].tuples))}
	}
	for _, u := range s.plan.units {
		switch u := u.(type) {
		case cfdUnit:
			st := &cfdState{g: u.g, cr: u.cr, kg: newKeyGroups(0), flatOff: make([]int, len(u.g.m))}
			for mi := range u.g.m {
				st.flatOff[mi] = st.nFlat
				st.nFlat += len(u.g.m[mi].rows)
			}
			s.cfdStates = append(s.cfdStates, st)
			s.byRel[u.g.rel].cfds = append(s.byRel[u.g.rel].cfds, st)
		case cindUnit:
			st := &cindState{g: u.g, rhs: u.rhs, kg: newKeyGroups(0)}
			for mi := range u.g.m {
				for ri := range u.g.m[mi].rows {
					st.works = append(st.works, workState{
						st: st, m: &u.g.m[mi], ri: ri, lhs: u.lhs[mi], byKey: map[int32][]int32{},
					})
				}
			}
			for wi := range st.works { // built: pointers into works are stable now
				w := &st.works[wi]
				s.byRel[w.m.lhsRel].lhs = append(s.byRel[w.m.lhsRel].lhs, w)
			}
			s.cindStates = append(s.cindStates, st)
			s.byRel[u.g.rhsRel].rhs = append(s.byRel[u.g.rhsRel].rhs, st)
		}
	}

	for _, d := range s.plan.deps {
		rs, tuples := s.byRel[d.rel], s.rels[d.rel].tuples
		for lo := 0; lo < len(tuples); lo += 8192 {
			if stop() {
				return false
			}
			hi := min(lo+8192, len(tuples))
			for i := lo; i < hi; i++ {
				rs.rowOf[tupleKey(tuples[i])] = int32(i)
			}
			s.route(rs, int32(lo), int32(hi), +1)
		}
	}
	return s.finish(stop)
}

// Apply applies the deltas in order, as one batch, and returns the net
// Diff of the violation report. The batch is validated up front (unknown
// relation, arity mismatch, bad op) and rejected whole on error; duplicate
// inserts and absent deletes are per-delta no-ops, matching instance set
// semantics.
func (s *Session) Apply(deltas ...Delta) (*Diff, error) {
	for _, d := range deltas {
		rel, ok := s.db.Schema().Relation(d.Rel)
		if !ok {
			return nil, fmt.Errorf("detect: delta %s: unknown relation %q", d, d.Rel)
		}
		if len(d.Tuple) != rel.Arity() {
			return nil, fmt.Errorf("detect: delta %s: tuple has arity %d, relation %s wants %d",
				d, len(d.Tuple), d.Rel, rel.Arity())
		}
		if d.Op != OpInsert && d.Op != OpDelete {
			return nil, fmt.Errorf("detect: delta on %s: invalid op %d", d.Rel, d.Op)
		}
	}
	s.events = make(map[string]*vioEvent)
	mutated := false
	for _, d := range deltas {
		in := s.db.Instance(d.Rel)
		switch {
		case d.Op == OpInsert && in.Insert(d.Tuple):
			s.stateInsert(d.Rel, d.Tuple)
		case d.Op == OpDelete && in.Delete(d.Tuple):
			s.stateDelete(d.Rel, d.Tuple)
		default:
			continue
		}
		mutated = true
	}
	s.finish(never)
	diff := s.flushEvents()
	if mutated {
		// Even a net-empty batch (delete t, re-insert t) can reorder the
		// instance, and a version promises batch order.
		s.version.Store(nil)
		s.maybeCompact()
	}
	return diff, nil
}

// maybeCompact rebuilds the resident structures from the database once
// dead rows dominate: append-only coded relations trade delete cost for
// memory, and a long-lived session under insert/delete churn would
// otherwise grow without bound while the instance stays small. The rebuild
// is semantically invisible — report order derives from instance order,
// which compaction preserves — so it only runs when the dead-row overhead
// both exceeds the live data and is large enough to matter.
func (s *Session) maybeCompact() {
	dead, live := 0, 0
	for rel, cr := range s.rels {
		live += len(s.byRel[rel].rowOf)
		dead += len(cr.tuples) - len(s.byRel[rel].rowOf)
	}
	if dead <= live || dead < 4096 {
		return
	}
	s.seed(never)
}

func never() bool { return false }

// Plan returns the plan of the session's current version: its units bound
// to the coded relations as they stand, its memo the maintained report in
// report order, so Run and Each replay the report without evaluating
// anything. The first call after a changing Apply publishes the version;
// calls racing to publish it all return the winner's plan. The plan keeps
// describing its version after later Applies: they only append past its
// rows, and compaction builds new relations.
func (s *Session) Plan() *Plan {
	if v := s.version.Load(); v != nil {
		return v
	}
	s.version.CompareAndSwap(nil, s.plan.frozen(s.hits()))
	return s.version.Load()
}

// Report returns the current violation report — equal, violation for
// violation and in the same order, to detect.Run over the session's
// database. It is materialised from the version's plan on each call.
func (s *Session) Report() *Report {
	rep, _ := s.Plan().Run(context.Background(), Options{})
	return rep
}

// hits collects the maintained report as per-slot hits, in exactly the
// batch engine's order: per CFD member, tableau rows in order, X buckets in
// first-live-row order, pairs in partition order; per CIND member, tableau
// rows in order, LHS rows in scan order.
func (s *Session) hits() [][]hit {
	out := make([][]hit, len(s.plan.slots))
	for _, st := range s.cfdStates {
		live := make([]*cfdBucket, 0, len(st.buckets))
		for _, b := range st.buckets {
			if len(b.rows) > 0 {
				live = append(live, b)
			}
		}
		slices.SortFunc(live, func(a, b *cfdBucket) int { return cmp.Compare(a.rows[0], b.rows[0]) })
		for mi := range st.g.m {
			m := &st.g.m[mi]
			for ri := range m.rows {
				fi := st.flatOff[mi] + ri
				for _, b := range live {
					out[m.idx] = append(out[m.idx], b.viols[fi]...)
				}
			}
		}
	}
	for _, st := range s.cindStates {
		for wi := range st.works {
			w := &st.works[wi]
			slot := len(s.cfds) + w.m.idx
			for k, row := range w.rows {
				if !w.satisfied(w.slots[k]) {
					out[slot] = append(out[slot], hit{row: int32(w.ri), t1: row})
				}
			}
		}
	}
	return out
}

// stateInsert codes a newly inserted tuple as a row and routes it.
func (s *Session) stateInsert(rel string, t instance.Tuple) {
	if rs := s.byRel[rel]; rs != nil {
		row := s.rels[rel].appendTuple(t, s.it)
		rs.rowOf[tupleKey(t)] = row
		s.route(rs, row, row+1, +1)
	}
}

// stateDelete routes the deleted tuple's live row out of the groups.
func (s *Session) stateDelete(rel string, t instance.Tuple) {
	rs := s.byRel[rel]
	if rs == nil {
		return
	}
	k := tupleKey(t)
	row, ok := rs.rowOf[k]
	if !ok {
		// The database and the session's mirror can only diverge if the
		// caller mutated the database directly; fail loudly.
		panic("detect: session state diverged from database on delete of " + t.String())
	}
	delete(rs.rowOf, k)
	s.route(rs, row, row+1, -1)
}

// route tells every resident group watching a relation about its rows lo
// to hi-1, in order, all inserted (sign +1) or all deleted (sign -1). The
// group order is immaterial for correctness — the sides update disjoint
// state and diff events cancel — but is fixed for determinism.
func (s *Session) route(rs *relState, lo, hi, sign int32) {
	for _, st := range rs.cfds {
		for row := lo; row < hi; row++ {
			st.move(row, sign)
		}
	}
	for _, st := range rs.rhs {
		for row := lo; row < hi; row++ {
			s.cindRHSUpdate(st, row, sign)
		}
	}
	for _, w := range rs.lhs {
		for row := lo; row < hi; row++ {
			s.cindLHSUpdate(w, row, sign)
		}
	}
}

// move adds the row to its X bucket (sign +1), creating the bucket on first
// sight of the projection, or removes it (sign -1), and marks it touched.
func (st *cfdState) move(row, sign int32) {
	bi := st.kg.findOrAdd(st.cr, int(row), st.g.xCols)
	if int(bi) == len(st.buckets) {
		st.buckets = append(st.buckets, &cfdBucket{rep: row, viols: make([][]hit, st.nFlat)})
	}
	b := st.buckets[bi]
	if sign > 0 {
		b.rows = append(b.rows, row) // row ids are monotone, so order stays ascending
	} else {
		b.rows = removeSorted(b.rows, row)
	}
	if !b.touched {
		b.touched = true
		st.touched = append(st.touched, bi)
	}
}

// finish ends a batch: it recomputes each bucket the batch touched once,
// from its final rows, which is exact as a bucket's violations depend only
// on its rows. stop is polled per bucket; finish reports false once it fires.
func (s *Session) finish(stop func() bool) bool {
	for _, st := range s.cfdStates {
		for _, bi := range st.touched {
			if stop() {
				return false
			}
			s.recomputeCFDBucket(st, st.buckets[bi])
		}
		st.touched = st.touched[:0]
	}
	return true
}

// recomputeCFDBucket re-derives the violating pairs of one touched bucket
// for every (member, tableau row) whose LHS pattern the bucket matches, and,
// within Apply, emits diff events against the pairs it held when the batch
// began; it clears the touched mark. It runs only at a batch's end (finish):
// the O(affected-group) step, which leaves the rest of the relation alone.
func (s *Session) recomputeCFDBucket(st *cfdState, b *cfdBucket) {
	b.touched = false
	for mi := range st.g.m {
		m := &st.g.m[mi]
		for ri := range m.rows {
			if !matchCoded(st.cr, int(b.rep), st.g.xCols, m.rows[ri].lhs) {
				continue
			}
			fi := st.flatOff[mi] + ri
			var nv []hit
			if len(b.rows) > 0 {
				partitionPairs(st.cr, m.yCols, m.rows[ri].rhs, b.rows, func(r1, r2 int32) bool {
					nv = append(nv, hit{row: int32(ri), t1: r1, t2: r2})
					return true
				})
				s.pairs += len(nv)
			}
			if s.events != nil {
				s.diffCFDPairs(st.cr, m, b.viols[fi], nv)
			}
			b.viols[fi] = nv
		}
	}
}

// diffCFDPairs emits add/remove events for the symmetric difference of the
// old and new pair lists of one (bucket, member, tableau row).
func (s *Session) diffCFDPairs(cr *codedRel, m *cfdMember, old, nu []hit) {
	if slices.Equal(old, nu) {
		return
	}
	// Both lists are of one tableau row, so the witness rows identify a
	// pair, and a two-int32 key takes the map's 8-byte fast path. Neither
	// list repeats a pair, so a count ends at -1, 0 or +1.
	cnt := make(map[[2]int32]int, len(old)+len(nu))
	for _, p := range old {
		cnt[[2]int32{p.t1, p.t2}]--
	}
	for _, p := range nu {
		cnt[[2]int32{p.t1, p.t2}]++
	}
	for _, p := range nu {
		if cnt[[2]int32{p.t1, p.t2}] > 0 {
			s.emitCFD(+1, cr, m, p)
		}
	}
	for _, p := range old {
		if cnt[[2]int32{p.t1, p.t2}] < 0 {
			s.emitCFD(-1, cr, m, p)
		}
	}
}

// cindRHSUpdate is the reverse-direction maintenance: an inserted RHS
// tuple (sign +1) supplies its Y projection to every tableau row it
// matches, curing the demanding LHS tuples when the satisfaction count
// crosses 0 → 1; a deleted one (sign -1) withdraws it, creating
// violations on 1 → 0.
func (s *Session) cindRHSUpdate(st *cindState, row int32, sign int32) {
	slot := st.kg.findOrAdd(st.rhs, int(row), st.g.yCols)
	for wi := range st.works {
		w := &st.works[wi]
		r := &w.m.rows[w.ri]
		if !matchCoded(st.rhs, int(row), st.g.yCols, r.y) ||
			!matchCoded(st.rhs, int(row), w.m.ypCols, r.yp) {
			continue
		}
		for int(slot) >= len(w.sat) {
			w.sat = append(w.sat, 0)
		}
		w.sat[slot] += sign
		if sign > 0 && w.sat[slot] == 1 {
			for _, lrow := range w.byKey[slot] {
				s.emitCIND(-1, w, lrow) // cured
			}
		} else if sign < 0 && w.sat[slot] == 0 {
			for _, lrow := range w.byKey[slot] {
				s.emitCIND(+1, w, lrow) // newly violating
			}
		}
	}
}

// cindLHSUpdate registers an inserted LHS row (sign +1) with the work if it
// matches the tableau row's LHS pattern, or drops a deleted one (sign -1);
// its violation comes or goes with it iff its demanded key is unsatisfied.
func (s *Session) cindLHSUpdate(w *workState, row, sign int32) {
	var slot int32
	if sign > 0 {
		if !matchCoded(w.lhs, int(row), w.m.lhsCols, w.m.rows[w.ri].lhs) {
			return
		}
		slot = w.st.kg.findOrAdd(w.lhs, int(row), w.m.xCols)
		w.rows = append(w.rows, row) // ascending by construction
		w.slots = append(w.slots, slot)
		w.byKey[slot] = append(w.byKey[slot], row)
	} else {
		i, ok := slices.BinarySearch(w.rows, row)
		if !ok {
			return // the row never matched this work's LHS pattern
		}
		slot = w.slots[i]
		w.rows = slices.Delete(w.rows, i, i+1)
		w.slots = slices.Delete(w.slots, i, i+1)
		w.byKey[slot] = removeSorted(w.byKey[slot], row)
	}
	if !w.satisfied(slot) {
		s.emitCIND(int(sign), w, row)
	}
}

// removeSorted deletes v from an ascending slice, preserving order.
func removeSorted(sl []int32, v int32) []int32 {
	if i, ok := slices.BinarySearch(sl, v); ok {
		return slices.Delete(sl, i, i+1)
	}
	return sl
}

// vioEvent is one net report change of the running batch. count is the
// running sum of +1 (added) / -1 (removed) applications; a zero count at
// flush time means the change cancelled out within the batch.
type vioEvent struct {
	count int
	slot  int // report slot: CFDs before CINDs, constraints in input order
	h     hit // the latest application's rows, for flush order and witnesses
}

// emit applies one change of report slot's hit h, identified across row ids
// by key.
func (s *Session) emit(sign, slot int, h hit, key string) {
	e, ok := s.events[key]
	if !ok {
		e = &vioEvent{slot: slot}
		s.events[key] = e
	}
	e.count += sign
	e.h = h
}

func (s *Session) emitCFD(sign int, cr *codedRel, m *cfdMember, h hit) {
	s.emit(sign, m.idx, h, strconv.Itoa(m.idx)+"."+strconv.Itoa(int(h.row))+"."+
		tupleKey(cr.tuples[h.t1])+tupleKey(cr.tuples[h.t2]))
}

func (s *Session) emitCIND(sign int, w *workState, lhsRow int32) {
	if s.events == nil {
		return // seeding: no events, and no key to build
	}
	slot := len(s.cfds) + w.m.idx
	s.emit(sign, slot, hit{row: int32(w.ri), t1: lhsRow}, strconv.Itoa(slot)+"."+strconv.Itoa(w.ri)+"."+
		tupleKey(w.lhs.tuples[lhsRow]))
}

// flushEvents nets the batch's events into a deterministic Diff, reading
// the witnesses from the coded relations, where deleted rows stay until
// compaction.
func (s *Session) flushEvents() *Diff {
	var added, removed []*vioEvent
	for _, e := range s.events {
		switch {
		case e.count > 0:
			added = append(added, e)
		case e.count < 0:
			removed = append(removed, e)
		}
	}
	s.events = nil
	d := &Diff{}
	fill := func(dst *Report, evs []*vioEvent) {
		slices.SortFunc(evs, func(a, b *vioEvent) int {
			return cmp.Or(cmp.Compare(a.slot, b.slot), cmp.Compare(a.h.row, b.h.row),
				cmp.Compare(a.h.t1, b.h.t1), cmp.Compare(a.h.t2, b.h.t2))
		})
		for _, e := range evs {
			ref := s.plan.slots[e.slot]
			s.plan.units[ref.u].report(dst, ref.mi, []hit{e.h})
		}
	}
	fill(&d.Added, added)
	fill(&d.Removed, removed)
	return d
}
