package detect

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"

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
// The session owns the resident counterparts of the batch engine's
// per-run structures:
//
//   - one interner and one coded relation per referenced relation, both
//     growing append-only (deletes tombstone a row; its codes stay valid
//     so keyGroups representatives never dangle);
//   - per (relation, X) CFD group, the X-projection buckets plus each
//     bucket's current violating pairs, recomputed per delta only for the
//     one bucket the changed tuple projects into;
//   - per (RHS relation, Y) CIND group, the demanded-key slots with a
//     per-(tableau row, slot) count of satisfying RHS tuples and the
//     matching LHS tuples per slot — so both delta directions are O(slot):
//     an insert on the RHS relation can cure violations (count 0 → 1) and
//     a delete can create them (count 1 → 0), exactly mirroring the
//     anti-join of the batch engine.
//
// Apply also mutates the underlying *instance.Database, so at every point
// Session.Report() equals detect.Run over the current database — violation
// for violation, in the same order — a property the package's differential
// stream tests drive over randomized delta scripts. Callers must not
// mutate the database behind the session's back.
//
// A Session is safe for concurrent use: Apply takes the write lock,
// Report a read lock (upgrading once to cache a rebuilt report). The
// returned Report and Diff values are immutable snapshots; callers must
// not modify them.
type Session struct {
	mu sync.RWMutex

	db    *instance.Database
	it    *types.Interner
	cfds  []*cfd.CFD
	cinds []*core.CIND

	rels       map[string]*liveRel
	cfdStates  []*cfdState
	cindStates []*cindState

	cfdByRel   map[string][]*cfdState
	cindByRHS  map[string][]*cindState
	worksByLHS map[string][]*workState

	// seeding mutes diff events while NewSession replays the initial
	// database contents into the resident structures.
	seeding bool
	// events accumulates the net violation changes of the running Apply
	// batch, keyed by public violation identity so that a violation
	// destroyed and re-created within one batch cancels out.
	events map[string]*vioEvent

	dirty  bool
	cached *Report
}

// liveRel is a coded relation that grows append-only under inserts and
// tombstones deletes: dead rows keep their tuple and codes (projection-
// group representatives may reference them) but are excluded from every
// live enumeration. Live rows in ascending row-id order are exactly the
// instance's tuples in insertion order.
type liveRel struct {
	cr    codedRel
	live  []bool
	rowOf map[string]int32 // tuple key -> live row id
}

func (lr *liveRel) insert(t instance.Tuple, it *types.Interner) int32 {
	row := lr.cr.appendTuple(t, it)
	lr.live = append(lr.live, true)
	lr.rowOf[tupleKey(t)] = row
	return row
}

// remove tombstones the tuple's row, reporting the row id.
func (lr *liveRel) remove(t instance.Tuple) (int32, bool) {
	k := tupleKey(t)
	row, ok := lr.rowOf[k]
	if !ok {
		return 0, false
	}
	delete(lr.rowOf, k)
	lr.live[row] = false
	return row, true
}

// pairViol is one violating pair of a CFD bucket, by row id (r1 == r2 for
// single-tuple violations).
type pairViol struct{ r1, r2 int32 }

// cfdBucket is the resident state of one X-projection group: its live rows
// in scan order and, per (member, tableau row), whether the bucket's X
// projection matches the LHS pattern and the current violating pairs.
type cfdBucket struct {
	rows  []int32 // live rows, ascending (== scan order)
	lhsOK []bool  // flat (member, tableau row) -> LHS pattern matches
	viols [][]pairViol
}

// cfdState is one CFD detection group kept resident: the group plan, its
// relation, and the mutable X-projection index (kg assigns bucket ordinals,
// buckets hold per-bucket state; ordinals are stable for the session's
// lifetime even when a bucket empties).
type cfdState struct {
	g       *cfdGroup
	lr      *liveRel
	kg      keyGroups
	buckets []*cfdBucket
	flatOff []int // member -> offset of its (member, row) flat indices
	nFlat   int
}

// workState is one (CIND member, tableau row) anti-join kept resident.
type workState struct {
	st    *cindState
	m     *cindMember
	ri    int
	lhsLR *liveRel
	rows  []int32           // matching LHS rows, ascending (== scan order)
	slots []int32           // parallel: demanded-key slot per matching row
	byKey map[int32][]int32 // slot -> matching LHS rows, ascending
	sat   []int32           // slot -> count of live RHS tuples satisfying it
}

func (w *workState) satisfied(slot int32) bool {
	return int(slot) < len(w.sat) && w.sat[slot] > 0
}

func (w *workState) growSat(slot int32) {
	for int(slot) >= len(w.sat) {
		w.sat = append(w.sat, 0)
	}
}

// cindState is one CIND detection group kept resident. kg spans both key
// directions, exactly like the batch anti-join: LHS inserts demand X
// projections, RHS tuples supply Y projections, and equal code sequences
// share a slot.
type cindState struct {
	g     *cindGroup
	rhsLR *liveRel
	kg    keyGroups
	works []workState
}

// NewSession plans the constraints once (sharing the batch engine's
// grouping), replays the database's current contents into the resident
// indexes, and returns a session whose Report already reflects the initial
// state. The database handle is retained: Apply mutates it.
func NewSession(db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND) *Session {
	s, _ := NewSessionContext(context.Background(), db, cfds, cinds)
	return s
}

// NewSessionContext is NewSession with cooperative cancellation of the
// seeding pass — the one full-database replay a session ever pays. Seeding
// only reads the database, so a cancelled build is abandoned without
// side effects and ctx's error returned.
func NewSessionContext(ctx context.Context, db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND) (*Session, error) {
	s := &Session{
		db:         db,
		it:         types.NewInterner(),
		cfds:       cfds,
		cinds:      cinds,
		rels:       map[string]*liveRel{},
		cfdByRel:   map[string][]*cfdState{},
		cindByRHS:  map[string][]*cindState{},
		worksByLHS: map[string][]*workState{},
		dirty:      true,
	}
	ensure := func(rel string) *liveRel {
		lr, ok := s.rels[rel]
		if !ok {
			lr = &liveRel{
				cr:    codedRel{arity: db.Instance(rel).Relation().Arity()},
				rowOf: map[string]int32{},
			}
			s.rels[rel] = lr
		}
		return lr
	}

	// One poll before planning: constraint plans are O(|Σ| × rows), so a
	// context already cancelled on entry skips the whole build.
	stop := stopFunc(ctx)
	if stop() {
		return nil, ctx.Err()
	}
	for _, g := range planCFDs(db, cfds, s.it) {
		st := &cfdState{g: g, lr: ensure(g.rel), kg: newKeyGroups(0)}
		st.flatOff = make([]int, len(g.m))
		for mi := range g.m {
			st.flatOff[mi] = st.nFlat
			st.nFlat += len(g.m[mi].rows)
		}
		s.cfdStates = append(s.cfdStates, st)
		s.cfdByRel[g.rel] = append(s.cfdByRel[g.rel], st)
	}
	for _, g := range planCINDs(db, cinds, s.it) {
		st := &cindState{g: g, rhsLR: ensure(g.rhsRel), kg: newKeyGroups(0)}
		for mi := range g.m {
			m := &g.m[mi]
			lhsLR := ensure(m.lhsRel)
			for ri := range m.rows {
				st.works = append(st.works, workState{
					st: st, m: m, ri: ri, lhsLR: lhsLR, byKey: map[int32][]int32{},
				})
			}
		}
		s.cindStates = append(s.cindStates, st)
		s.cindByRHS[g.rhsRel] = append(s.cindByRHS[g.rhsRel], st)
	}
	// works are fully built; pointers into the slices are stable now.
	for _, st := range s.cindStates {
		for wi := range st.works {
			w := &st.works[wi]
			s.worksByLHS[w.m.lhsRel] = append(s.worksByLHS[w.m.lhsRel], w)
		}
	}

	// Replay the initial contents with events muted, then compute every
	// bucket's violations once (per-insert recomputation would be
	// quadratic in the bucket size).
	s.seeding = true
	n := 0
	for name, lr := range s.rels {
		for _, t := range db.Instance(name).Tuples() {
			if n&1023 == 0 && stop() {
				return nil, ctx.Err()
			}
			n++
			s.stateInsert(name, lr, t)
		}
	}
	for _, st := range s.cfdStates {
		for _, b := range st.buckets {
			if stop() {
				return nil, ctx.Err()
			}
			s.recomputeCFDBucket(st, b)
		}
	}
	s.seeding = false
	return s, nil
}

// DB returns the underlying database the session maintains.
func (s *Session) DB() *instance.Database { return s.db }

// Apply applies the deltas in order, as one batch, and returns the net
// Diff of the violation report. The batch is validated up front (unknown
// relation, arity mismatch, bad op) and rejected whole on error; duplicate
// inserts and absent deletes are per-delta no-ops, matching instance set
// semantics.
func (s *Session) Apply(deltas ...Delta) (*Diff, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
		switch d.Op {
		case OpInsert:
			if !in.Insert(d.Tuple) {
				continue
			}
			mutated = true
			if lr := s.rels[d.Rel]; lr != nil {
				s.stateInsert(d.Rel, lr, d.Tuple)
			}
		case OpDelete:
			if !in.Delete(d.Tuple) {
				continue
			}
			mutated = true
			if lr := s.rels[d.Rel]; lr != nil {
				s.stateDelete(d.Rel, lr, d.Tuple)
			}
		}
	}
	diff := s.flushEvents()
	if mutated {
		// Even a net-empty batch (delete t, re-insert t) can reorder the
		// instance, and the cached report promises batch order.
		s.dirty = true
		s.maybeCompact()
	}
	return diff, nil
}

// maybeCompact rebuilds the resident structures from the database once
// tombstones dominate: append-only coded relations trade delete cost for
// memory, and a long-lived session under insert/delete churn would
// otherwise grow without bound while the instance stays small. The rebuild
// is semantically invisible — report order derives from instance order,
// which compaction preserves — so it only runs when the dead-row overhead
// both exceeds the live data and is large enough to matter.
func (s *Session) maybeCompact() {
	dead, live := 0, 0
	for _, lr := range s.rels {
		live += len(lr.rowOf)
		dead += len(lr.live) - len(lr.rowOf)
	}
	if dead <= live || dead < 4096 {
		return
	}
	fresh := NewSession(s.db, s.cfds, s.cinds)
	s.it = fresh.it
	s.rels = fresh.rels
	s.cfdStates = fresh.cfdStates
	s.cindStates = fresh.cindStates
	s.cfdByRel = fresh.cfdByRel
	s.cindByRHS = fresh.cindByRHS
	s.worksByLHS = fresh.worksByLHS
}

// Report returns the current violation report — equal, violation for
// violation and in the same order, to detect.Run over the session's
// database. The result is cached between Applies and must be treated as
// immutable.
func (s *Session) Report() *Report {
	s.mu.RLock()
	if !s.dirty {
		r := s.cached
		s.mu.RUnlock()
		return r
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty {
		s.cached = s.assemble()
		s.dirty = false
	}
	return s.cached
}

// stateInsert routes a newly inserted tuple through every resident group
// that watches the relation: CFD buckets, then the RHS (supply) side of
// CIND groups, then the LHS (demand) side. The order is immaterial for
// correctness — the sides update disjoint state and diff events cancel —
// but is fixed for determinism.
func (s *Session) stateInsert(rel string, lr *liveRel, t instance.Tuple) {
	row := lr.insert(t, s.it)
	for _, st := range s.cfdByRel[rel] {
		s.cfdInsert(st, row)
	}
	for _, st := range s.cindByRHS[rel] {
		s.cindRHSUpdate(st, row, +1)
	}
	for _, w := range s.worksByLHS[rel] {
		s.cindLHSInsert(w, row)
	}
}

func (s *Session) stateDelete(rel string, lr *liveRel, t instance.Tuple) {
	row, ok := lr.remove(t)
	if !ok {
		// The database and the session's mirror can only diverge if the
		// caller mutated the database directly; fail loudly.
		panic("detect: session state diverged from database on delete of " + t.String())
	}
	for _, st := range s.cfdByRel[rel] {
		s.cfdDelete(st, row)
	}
	for _, st := range s.cindByRHS[rel] {
		s.cindRHSUpdate(st, row, -1)
	}
	for _, w := range s.worksByLHS[rel] {
		s.cindLHSDelete(w, row)
	}
}

// cfdInsert adds the row to its X bucket (creating the bucket, with its
// per-(member, row) LHS pattern verdicts, on first sight of the
// projection) and recomputes the bucket's violations.
func (s *Session) cfdInsert(st *cfdState, row int32) {
	bi := st.kg.findOrAdd(&st.lr.cr, int(row), st.g.xCols)
	if int(bi) == len(st.buckets) {
		b := &cfdBucket{lhsOK: make([]bool, st.nFlat), viols: make([][]pairViol, st.nFlat)}
		for mi := range st.g.m {
			m := &st.g.m[mi]
			for ri := range m.rows {
				b.lhsOK[st.flatOff[mi]+ri] = matchCoded(&st.lr.cr, int(row), st.g.xCols, m.rows[ri].lhs)
			}
		}
		st.buckets = append(st.buckets, b)
	}
	b := st.buckets[bi]
	b.rows = append(b.rows, row) // row ids are monotone, so order stays ascending
	if !s.seeding {
		s.recomputeCFDBucket(st, b)
	}
}

func (s *Session) cfdDelete(st *cfdState, row int32) {
	bi := st.kg.find(&st.lr.cr, int(row), st.g.xCols)
	b := st.buckets[bi]
	b.rows = removeSorted(b.rows, row)
	s.recomputeCFDBucket(st, b)
}

// recomputeCFDBucket re-derives the violating pairs of one bucket for every
// (member, tableau row) whose LHS pattern the bucket matches, and emits
// diff events against the previous pairs. This is the O(affected-group)
// step: the rest of the relation is untouched.
func (s *Session) recomputeCFDBucket(st *cfdState, b *cfdBucket) {
	for mi := range st.g.m {
		m := &st.g.m[mi]
		for ri := range m.rows {
			fi := st.flatOff[mi] + ri
			if !b.lhsOK[fi] {
				continue
			}
			var nv []pairViol
			if len(b.rows) > 0 {
				partitionPairs(&st.lr.cr, m.yCols, m.rows[ri].rhs, b.rows, func(r1, r2 int32) bool {
					nv = append(nv, pairViol{r1, r2})
					return true
				})
			}
			s.diffCFDPairs(st.lr, m, ri, b.viols[fi], nv)
			b.viols[fi] = nv
		}
	}
}

// diffCFDPairs emits add/remove events for the symmetric difference of the
// old and new pair lists of one (bucket, member, tableau row).
func (s *Session) diffCFDPairs(lr *liveRel, m *cfdMember, ri int, old, nu []pairViol) {
	if s.seeding {
		return
	}
	if len(old) == len(nu) {
		same := true
		for i := range old {
			if old[i] != nu[i] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	cnt := make(map[pairViol]int, len(old)+len(nu))
	for _, p := range old {
		cnt[p]--
	}
	for _, p := range nu {
		cnt[p]++
	}
	for _, p := range nu {
		if cnt[p] > 0 {
			s.emitCFD(+1, lr, m, ri, p)
			cnt[p] = 0
		}
	}
	for _, p := range old {
		if cnt[p] < 0 {
			s.emitCFD(-1, lr, m, ri, p)
			cnt[p] = 0
		}
	}
}

// cindRHSUpdate is the reverse-direction maintenance: an inserted RHS
// tuple (sign +1) supplies its Y projection to every tableau row it
// matches, curing the demanding LHS tuples when the satisfaction count
// crosses 0 → 1; a deleted one (sign -1) withdraws it, creating
// violations on 1 → 0.
func (s *Session) cindRHSUpdate(st *cindState, row int32, sign int32) {
	slot := st.kg.findOrAdd(&st.rhsLR.cr, int(row), st.g.yCols)
	for wi := range st.works {
		w := &st.works[wi]
		r := &w.m.rows[w.ri]
		if !matchCoded(&st.rhsLR.cr, int(row), st.g.yCols, r.y) ||
			!matchCoded(&st.rhsLR.cr, int(row), w.m.ypCols, r.yp) {
			continue
		}
		w.growSat(slot)
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

// cindLHSInsert registers an inserted LHS tuple with every tableau row
// whose LHS pattern it matches; it violates immediately iff its demanded
// key is unsatisfied.
func (s *Session) cindLHSInsert(w *workState, row int32) {
	crL := &w.lhsLR.cr
	r := &w.m.rows[w.ri]
	if !matchCoded(crL, int(row), w.m.lhsCols, r.lhs) {
		return
	}
	slot := w.st.kg.findOrAdd(crL, int(row), w.m.xCols)
	w.rows = append(w.rows, row) // ascending by construction
	w.slots = append(w.slots, slot)
	w.byKey[slot] = append(w.byKey[slot], row)
	if !w.satisfied(slot) {
		s.emitCIND(+1, w, row)
	}
}

func (s *Session) cindLHSDelete(w *workState, row int32) {
	i := sort.Search(len(w.rows), func(i int) bool { return w.rows[i] >= row })
	if i == len(w.rows) || w.rows[i] != row {
		return // the tuple never matched this work's LHS pattern
	}
	slot := w.slots[i]
	w.rows = append(w.rows[:i], w.rows[i+1:]...)
	w.slots = append(w.slots[:i], w.slots[i+1:]...)
	w.byKey[slot] = removeSorted(w.byKey[slot], row)
	if !w.satisfied(slot) {
		s.emitCIND(-1, w, row)
	}
}

// removeSorted deletes v from an ascending slice, preserving order.
func removeSorted(sl []int32, v int32) []int32 {
	i := sort.Search(len(sl), func(i int) bool { return sl[i] >= v })
	if i == len(sl) || sl[i] != v {
		return sl
	}
	return append(sl[:i], sl[i+1:]...)
}

// vioEvent is one net report change of the running batch. count is the
// running sum of +1 (added) / -1 (removed) applications; a zero count at
// flush time means the change cancelled out within the batch.
type vioEvent struct {
	count int
	isCFD bool
	idx   int // constraint position in the session's input
	ri    int
	a, b  int32 // row ids, for deterministic flush ordering
	cfdV  cfd.Violation
	cindV core.Violation
}

func (s *Session) emitCFD(sign int, lr *liveRel, m *cfdMember, ri int, p pairViol) {
	if s.seeding {
		return
	}
	v := cfd.Violation{CFD: m.c, RowIdx: ri, T1: lr.cr.tuples[p.r1], T2: lr.cr.tuples[p.r2]}
	key := "f" + strconv.Itoa(m.idx) + "." + strconv.Itoa(ri) + "." + tupleKey(v.T1) + tupleKey(v.T2)
	e, ok := s.events[key]
	if !ok {
		e = &vioEvent{isCFD: true, idx: m.idx, ri: ri}
		s.events[key] = e
	}
	e.count += sign
	e.a, e.b, e.cfdV = p.r1, p.r2, v
}

func (s *Session) emitCIND(sign int, w *workState, lhsRow int32) {
	if s.seeding {
		return
	}
	v := core.Violation{CIND: w.m.c, RowIdx: w.ri, T: w.lhsLR.cr.tuples[lhsRow]}
	key := "i" + strconv.Itoa(w.m.idx) + "." + strconv.Itoa(w.ri) + "." + tupleKey(v.T)
	e, ok := s.events[key]
	if !ok {
		e = &vioEvent{idx: w.m.idx, ri: w.ri}
		s.events[key] = e
	}
	e.count += sign
	e.a, e.cindV = lhsRow, v
}

// flushEvents nets the batch's events into a deterministic Diff.
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
	order := func(evs []*vioEvent) {
		sort.Slice(evs, func(i, j int) bool {
			a, b := evs[i], evs[j]
			if a.isCFD != b.isCFD {
				return a.isCFD
			}
			if a.idx != b.idx {
				return a.idx < b.idx
			}
			if a.ri != b.ri {
				return a.ri < b.ri
			}
			if a.a != b.a {
				return a.a < b.a
			}
			return a.b < b.b
		})
	}
	order(added)
	order(removed)
	d := &Diff{}
	fill := func(dst *Report, evs []*vioEvent) {
		for _, e := range evs {
			if e.isCFD {
				dst.CFD = append(dst.CFD, e.cfdV)
			} else {
				dst.CIND = append(dst.CIND, e.cindV)
			}
		}
	}
	fill(&d.Added, added)
	fill(&d.Removed, removed)
	return d
}

// assemble rebuilds the full report from the resident state, in exactly the
// batch engine's order: constraints in input order; per CFD member, tableau
// rows in order, X buckets in first-live-row order, pairs in partition
// order; per CIND member, tableau rows in order, LHS tuples in scan order.
func (s *Session) assemble() *Report {
	cfdOut := make([][]cfd.Violation, len(s.cfds))
	for _, st := range s.cfdStates {
		type bucketRef struct {
			first int32
			b     *cfdBucket
		}
		refs := make([]bucketRef, 0, len(st.buckets))
		for _, b := range st.buckets {
			if len(b.rows) > 0 {
				refs = append(refs, bucketRef{b.rows[0], b})
			}
		}
		sort.Slice(refs, func(i, j int) bool { return refs[i].first < refs[j].first })
		for mi := range st.g.m {
			m := &st.g.m[mi]
			for ri := range m.rows {
				fi := st.flatOff[mi] + ri
				for _, ref := range refs {
					for _, p := range ref.b.viols[fi] {
						cfdOut[m.idx] = append(cfdOut[m.idx], cfd.Violation{
							CFD: m.c, RowIdx: ri,
							T1: st.lr.cr.tuples[p.r1], T2: st.lr.cr.tuples[p.r2],
						})
					}
				}
			}
		}
	}
	cindOut := make([][]core.Violation, len(s.cinds))
	for _, st := range s.cindStates {
		for wi := range st.works {
			w := &st.works[wi]
			for k, row := range w.rows {
				if !w.satisfied(w.slots[k]) {
					cindOut[w.m.idx] = append(cindOut[w.m.idx], core.Violation{
						CIND: w.m.c, RowIdx: w.ri, T: w.lhsLR.cr.tuples[row],
					})
				}
			}
		}
	}
	res := &Report{}
	for _, vs := range cfdOut {
		res.CFD = append(res.CFD, vs...)
	}
	for _, vs := range cindOut {
		res.CIND = append(res.CIND, vs...)
	}
	return res
}
