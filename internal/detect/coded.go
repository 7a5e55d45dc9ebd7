package detect

import (
	"slices"

	"cind/internal/instance"
	"cind/internal/pattern"
	"cind/internal/types"
)

// codedRel is a relation instance with every field interned to a uint64
// symbol code (row-major). It is built once per plan and shared read-only
// by all evaluation units over that relation, so projection hashing and
// pattern matches are pure integer work in the hot loops.
type codedRel struct {
	tuples []instance.Tuple
	arity  int
	codes  []uint64 // len(tuples)*arity
}

// codeRelation codes in's current tuples. The coded relation owns its
// tuple slice — a copy of the instance's, which Delete compacts in place —
// so it keeps describing the version it was coded at after in changes.
func codeRelation(in *instance.Instance, it *types.Interner) *codedRel {
	tuples := slices.Clone(in.Tuples())
	arity := in.Relation().Arity()
	cr := &codedRel{tuples: tuples, arity: arity, codes: make([]uint64, len(tuples)*arity)}
	// Column-wise with a last-value cache: real columns are repetitive, and
	// re-coding an identical string (usually the same backing array) is a
	// cheap string compare instead of an interner lookup.
	for j := 0; j < arity; j++ {
		var lastStr string
		var lastCode uint64
		seen := false
		for i, t := range tuples {
			v := t[j]
			var c uint64
			if v.IsConst() {
				if s := v.Str(); seen && s == lastStr {
					c = lastCode
				} else {
					c = it.Const(s)
					lastStr, lastCode, seen = s, c, true
				}
			} else {
				c = it.Code(v)
			}
			cr.codes[i*arity+j] = c
		}
	}
	return cr
}

// appendTuple codes one tuple and appends it as a new row, returning the
// row id. The incremental session grows its resident coded relations through
// this path: rows are append-only (a delete drops the row from the session's
// groups and leaves it in place), so row ids — and the code sequences behind
// keyGroups representatives — stay valid for the lifetime of the session.
func (cr *codedRel) appendTuple(t instance.Tuple, it *types.Interner) int32 {
	row := int32(len(cr.tuples))
	cr.tuples = append(cr.tuples, t)
	for _, v := range t {
		cr.codes = append(cr.codes, it.Code(v))
	}
	return row
}

// frozen returns a copy of cr's slice headers: the rows cr holds now, which
// appendTuple never rewrites.
func (cr *codedRel) frozen() *codedRel {
	c := *cr
	return &c
}

// projHash mixes the projected codes of one tuple into a 64-bit hash.
func projHash(cr *codedRel, row int, cols []int) uint64 {
	base := row * cr.arity
	h := uint64(0x9E3779B97F4A7C15)
	for _, c := range cols {
		h ^= cr.codes[base+c]
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 29
	}
	return h
}

// projEq reports whether two projections hold identical code sequences.
// The column lists must have equal length (CIND validation guarantees
// |X| = |Y|; CFD groups share one X list).
func projEq(a *codedRel, ra int, ca []int, b *codedRel, rb int, cb []int) bool {
	ba, bb := ra*a.arity, rb*b.arity
	for i := range ca {
		if a.codes[ba+ca[i]] != b.codes[bb+cb[i]] {
			return false
		}
	}
	return true
}

// keyGroups assigns dense ordinals to distinct projections, in first-seen
// order, without materialising key strings: lookups go through a
// hash-of-codes map and collisions (different projections, same 64-bit
// hash) are resolved by comparing code sequences against each group's
// recorded representative. Representatives may come from different coded
// relations — a CIND compares LHS X projections against RHS Y projections.
type keyGroups struct {
	byHash map[uint64]int32   // hash -> first group with that hash
	over   map[uint64][]int32 // colliding further groups, lazily allocated
	srcs   []keySrc           // the projections representatives come from
	reps   []keyRep           // group -> representative
}

// keySrc is one projection representatives come from: a coded relation and
// the column list projected out of it.
type keySrc struct {
	cr   *codedRel
	cols []int
}

// keyRep is a group's representative: row row of srcs[src]. It is
// pointer-free, so a table of a million groups costs the garbage collector
// nothing to scan.
type keyRep struct{ src, row int32 }

// newKeyGroups sizes the table for sizeHint groups.
func newKeyGroups(sizeHint int) keyGroups {
	return keyGroups{byHash: make(map[uint64]int32, sizeHint), reps: make([]keyRep, 0, sizeHint)}
}

func (kg *keyGroups) size() int { return len(kg.reps) }

// eq reports whether the projection equals group g's representative.
func (kg *keyGroups) eq(g int32, cr *codedRel, row int, cols []int) bool {
	r := kg.reps[g]
	s := &kg.srcs[r.src]
	return projEq(cr, row, cols, s.cr, int(r.row), s.cols)
}

// source returns the index of the (cr, cols) projection in srcs, adding it
// when absent. Column lists match by identity, as callers pass their
// planned slices: an equal list in another slice only adds a source. A
// table draws on one source per constraint member at most, so the scan is
// short, and it starts from the most recently added source.
func (kg *keyGroups) source(cr *codedRel, cols []int) int32 {
	for i := len(kg.srcs) - 1; i >= 0; i-- {
		s := &kg.srcs[i]
		if s.cr == cr && len(s.cols) == len(cols) && (len(cols) == 0 || &s.cols[0] == &cols[0]) {
			return int32(i)
		}
	}
	kg.srcs = append(kg.srcs, keySrc{cr: cr, cols: cols})
	return int32(len(kg.srcs) - 1)
}

// find returns the ordinal of the group holding the projection, or -1.
func (kg *keyGroups) find(cr *codedRel, row int, cols []int) int32 {
	h := projHash(cr, row, cols)
	gi, ok := kg.byHash[h]
	if !ok {
		return -1
	}
	if kg.eq(gi, cr, row, cols) {
		return gi
	}
	for _, g := range kg.over[h] {
		if kg.eq(g, cr, row, cols) {
			return g
		}
	}
	return -1
}

// findOrAdd is find, adding a new group with this projection as
// representative when absent.
func (kg *keyGroups) findOrAdd(cr *codedRel, row int, cols []int) int32 {
	h := projHash(cr, row, cols)
	gi, ok := kg.byHash[h]
	if ok {
		if kg.eq(gi, cr, row, cols) {
			return gi
		}
		for _, g := range kg.over[h] {
			if kg.eq(g, cr, row, cols) {
				return g
			}
		}
	}
	ng := int32(len(kg.reps))
	kg.reps = append(kg.reps, keyRep{src: kg.source(cr, cols), row: int32(row)})
	if !ok {
		kg.byHash[h] = ng
	} else {
		if kg.over == nil {
			kg.over = map[uint64][]int32{}
		}
		kg.over[h] = append(kg.over[h], ng)
	}
	return ng
}

// projIndex groups every tuple of a coded relation by its projection on a
// fixed column list. Groups are numbered in first-seen (insertion) order —
// the order the per-constraint reference implementations report in — and
// the member tuple indices of group g are ix.group(g), also in insertion
// order. One index serves every constraint in a detection group, which is
// the batching win: k constraints sharing a projection cost one scan, not k.
type projIndex struct {
	cols   []int
	kg     keyGroups
	offs   []int32 // group -> start offset into tupIdx
	tupIdx []int32 // tuple indices, concatenated per group
}

// buildProjIndex returns nil when stop fires mid-build — the index pass is
// the dominant cost on clean data, so cancellation must be able to
// interrupt it, not just the pair enumeration that follows.
func buildProjIndex(cr *codedRel, cols []int, stop func() bool) *projIndex {
	n := len(cr.tuples)
	ix := &projIndex{cols: cols, kg: newKeyGroups(n)}
	tupGi := make([]int32, n)
	counts := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if i&8191 == 0 && stop() {
			return nil
		}
		gi := ix.kg.findOrAdd(cr, i, cols)
		if int(gi) == len(counts) {
			counts = append(counts, 0)
		}
		tupGi[i] = gi
		counts[gi]++
	}
	ng := len(counts)
	ix.offs = make([]int32, ng+1)
	for g := 0; g < ng; g++ {
		ix.offs[g+1] = ix.offs[g] + counts[g]
	}
	ix.tupIdx = make([]int32, n)
	next := append([]int32(nil), ix.offs[:ng]...)
	for i := 0; i < n; i++ {
		gi := tupGi[i]
		ix.tupIdx[next[gi]] = int32(i)
		next[gi]++
	}
	return ix
}

func (ix *projIndex) size() int { return ix.kg.size() }

// rep returns the representative (first) tuple index of group g.
func (ix *projIndex) rep(g int) int32 { return ix.kg.reps[g].row }

func (ix *projIndex) group(g int32) []int32 { return ix.tupIdx[ix.offs[g]:ix.offs[g+1]] }

// patSym is one compiled pattern symbol: the wildcard, or an interned
// constant code. A constant symbol matches exactly the values with the same
// code (chase variables live in a disjoint code namespace, so v ≭ a holds
// for free).
type patSym struct {
	wild bool
	code uint64
}

func compilePattern(tp pattern.Tuple, it *types.Interner) []patSym {
	out := make([]patSym, len(tp))
	for i, s := range tp {
		if s.IsConst() {
			out[i] = patSym{code: it.Const(s.Const())}
		} else {
			out[i].wild = true
		}
	}
	return out
}

// matchCoded reports whether tuple row of cr, projected to cols, matches
// the compiled pattern.
func matchCoded(cr *codedRel, row int, cols []int, pat []patSym) bool {
	base := row * cr.arity
	for i, p := range pat {
		if !p.wild && cr.codes[base+cols[i]] != p.code {
			return false
		}
	}
	return true
}
