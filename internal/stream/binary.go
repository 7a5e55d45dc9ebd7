package stream

import (
	"encoding/binary"
	"fmt"
	"sync"
	"unsafe"

	"cind/internal/constraint"
	"cind/internal/detect"
	"cind/internal/instance"
	"cind/internal/types"
)

// Binary 'B' frame body: a batch of entries back to back, each a one-byte
// tag and its fields:
//
//	'C'  constraint declaration: uvarint len + bytes each of kind,
//	     constraint id and relation
//	'T'  tuple declaration: uvarint value count, then uvarint len + bytes
//	     per value
//	'V'  violation: uvarint constraint ref, zigzag varint row, uvarint
//	     witness count, then one uvarint tuple ref per witness tuple
//
// Declarations build two stream-scoped tables whose ids are implicit: the
// n-th 'C' of a stream, counted across its frames from 0, is constraint n,
// and the n-th 'T' is tuple n. A ref names an id declared earlier in the
// stream. A writer declares a constraint or tuple in the entries just
// before the first violation that cites it — the constraint first, then
// witness tuples in witness order — so each tuple's values cross the wire once,
// however many violations it witnesses: a CFD group of n tuples that
// agree on X sends n tuples for its n(n-1)/2 pair violations.
//
// The framing layer (internal/wal) already guarantees the body is intact
// (CRC) and bounded (MaxRecord), so the body codec only has to be exact:
// every length is validated against the remaining bytes, every ref against
// the ids declared so far, and trailing garbage is an error, never
// silently skipped. Each entry takes at least two bytes, so the tables
// grow no faster than the bytes received.

// Entry tags of a 'B' body.
const (
	declConstraint = 'C'
	declTuple      = 'T'
	entryViolation = 'V'
)

// encoder is NewWriter's binary body state: the ids it has declared so
// far. Constraints are keyed on their pointer and tuples on their backing
// array, so encoding hashes no strings. Every row of a plan version keeps
// one backing array, so a tuple cited by many violations is declared once;
// a source that hands out copies of a tuple costs extra declarations,
// never a wrong decode.
type encoder struct {
	cons map[constraint.Constraint]uint64
	tups map[*types.Value]tupleID // by the backing array's first element

	// The last constraint, and the last tuple at each witness position,
	// with their ids: a report's violations come in runs of one
	// constraint, and a CFD's pairs in runs of one first tuple.
	lastCon   constraint.Constraint
	lastConID uint64
	last      [2]tupleID

	ntups uint64 // tuples declared
}

// tupleKey identifies a tuple by its backing array. Holding the pointer
// keeps the array alive, so no other tuple can take its address for the
// rest of the stream.
type tupleKey struct {
	p *types.Value
	n int
}

type tupleID struct {
	k  tupleKey
	id uint64
}

func newEncoder() *encoder {
	return &encoder{cons: map[constraint.Constraint]uint64{}, tups: map[*types.Value]tupleID{}}
}

// appendViolation appends one violation to dst, straight from the engine
// value: the declarations it is the first to cite, then its 'V' entry.
// The witness tuples come from AsCFD/AsCIND rather than Witness(), which
// would allocate a fresh slice per violation; callers reuse dst as
// scratch, so the steady state is allocation-free.
func (e *encoder) appendViolation(dst []byte, v *detect.Violation) []byte {
	c, con := v.Constraint(), e.lastConID
	if c != e.lastCon || len(e.cons) == 0 {
		var ok bool
		if con, ok = e.cons[c]; !ok {
			con = uint64(len(e.cons))
			e.cons[c] = con
			dst = append(dst, declConstraint)
			dst = appendStr(dst, v.Kind().String())
			dst = appendStr(dst, v.ConstraintID())
			dst = appendStr(dst, v.Relation())
		}
		e.lastCon, e.lastConID = c, con
	}
	var wit [2]instance.Tuple
	n := 0
	if cv, ok := v.AsCFD(); ok {
		wit, n = [2]instance.Tuple{cv.T1, cv.T2}, 2
	} else if iv, ok := v.AsCIND(); ok {
		wit[0], n = iv.T, 1
	}
	var refs [2]uint64
	for i, t := range wit[:n] {
		k := tupleKey{unsafe.SliceData(t), len(t)}
		if e.last[i].k != k || e.ntups == 0 {
			e.last[i] = tupleID{k, 0}
			e.last[i].id, dst = e.tuple(dst, k, t)
		}
		refs[i] = e.last[i].id
	}
	dst = append(dst, entryViolation)
	dst = binary.AppendUvarint(dst, con)
	dst = binary.AppendVarint(dst, int64(v.Row()))
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, r := range refs[:n] {
		dst = binary.AppendUvarint(dst, r)
	}
	return dst
}

// tuple returns the id of t, whose key is k, first appending its
// declaration to dst when t is new to the stream. The table is keyed on
// the pointer alone, which hashes fastest; a tuple that shares its first
// element with a known one of another length, which no relation's rows
// do, is declared afresh each time, as a copy would be.
func (e *encoder) tuple(dst []byte, k tupleKey, t instance.Tuple) (uint64, []byte) {
	ti, ok := e.tups[k.p]
	if ok && ti.k == k {
		return ti.id, dst
	}
	id := e.ntups
	e.ntups++
	if !ok {
		e.tups[k.p] = tupleID{k, id}
	}
	dst = append(dst, declTuple)
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, val := range t {
		dst = appendStr(dst, val.String())
	}
	return id, dst
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// internCache is a direct-mapped string cache for the decoder. Violation
// streams repeat the same handful of kinds, constraint ids, relations and
// domain values millions of times; interning collapses each distinct value
// to one allocation. Direct mapping keeps the hit path to a short hash and
// one compare — far cheaper than a map — and bounds memory to the slot
// count: a high-cardinality stream just thrashes slots and allocates as if
// there were no cache.
const internSlots = 1 << 12

type internCache struct{ slots [internSlots]string }

// get returns a shared string for b's value. Neither the FNV-1a hash nor
// the string(b) comparison allocates; only a slot miss does. The function
// is kept small enough to inline into the decode loop.
func (c *internCache) get(b []byte) string {
	h := uint32(2166136261)
	for _, x := range b {
		h = (h ^ uint32(x)) * 16777619
	}
	if s := c.slots[h&(internSlots-1)]; s == string(b) {
		return s
	}
	s := string(b)
	c.slots[h&(internSlots-1)] = s
	return s
}

// dict is one binary stream's declaration tables as decoded so far: the
// stream's n-th 'C' is cons[n], its n-th 'T' tuples[n] (Next) or raws[n]
// (the record view). Next keeps each declaration decoded, so every
// violation citing a tuple shares one []string; the record view keeps each
// declaration's wire bytes.
type dict struct {
	cons   []conDecl
	tuples [][]string
	raws   [][]byte
}

// conDecl is one constraint declaration: decoded for Next, in wire form
// for the record view.
type conDecl struct {
	kind, id, rel string
	raw, rawID    []byte // the declaration's fields, and the id's bytes
}

// frameDict is what a record view frame's records resolve their refs
// through: the frame's body, and its stream's tables as they stood at the
// end of the frame. The table slices are capped copies of the stream's, so
// the stream may go on declaring while another goroutine reads records.
type frameDict struct {
	src  *dict // the stream, which a relay keys its id maps by
	body []byte
	cons []conDecl
	tups [][]byte
}

// Record is one violation of a 'B' body left undecoded: its refs, resolved
// through its stream's tables. Decoder.NextRecord hands records out only
// after validating their whole frame, so a Record is always well formed.
// It is what a router relays: a binary client gets its declarations and
// entry with the refs renumbered, and only the NDJSON and JSON encodings
// decode it.
type Record struct {
	f   *frameDict
	row int
	con int
	wit int    // the first witness tuple's id; -1 when there is none
	off uint32 // the entry's witness count, as an offset into f.body
}

// Constraint returns the bytes of the violated constraint's id.
func (r *Record) Constraint() []byte { return r.f.cons[r.con].rawID }

// Row returns the violation's pattern row.
func (r *Record) Row() int { return r.row }

// Witness returns the record's first witness tuple in its wire form — a
// uvarint value count, then each value as a uvarint length and its bytes —
// or nil when the record carries no witness.
func (r *Record) Witness() []byte {
	if r.wit < 0 {
		return nil
	}
	return r.f.tups[r.wit]
}

// cursor reads a 'B' body with bounds checking on every read.
type cursor struct {
	body []byte
	off  int
}

func (c *cursor) uvarint() (uint64, error) {
	// Single-byte values — almost every length, count, arity and small
	// ref — skip the generic decoder.
	if c.off < len(c.body) {
		if b := c.body[c.off]; b < 0x80 {
			c.off++
			return uint64(b), nil
		}
	}
	u, n := binary.Uvarint(c.body[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("stream: bad uvarint at frame offset %d", c.off)
	}
	c.off += n
	return u, nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.body[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("stream: bad varint at frame offset %d", c.off)
	}
	c.off += n
	return v, nil
}

// str reads a length-prefixed string's bytes.
func (c *cursor) str() ([]byte, error) {
	u, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if u > uint64(len(c.body)-c.off) {
		return nil, fmt.Errorf("stream: string of %d bytes overruns frame at offset %d", u, c.off)
	}
	b := c.body[c.off : c.off+int(u)]
	c.off += int(u)
	return b, nil
}

// count reads a witness or tuple count, which can never exceed the bytes
// left: each element takes at least one.
func (c *cursor) count(what string) (int, error) {
	u, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if u > uint64(len(c.body)-c.off) {
		return 0, fmt.Errorf("stream: %s %d overruns frame at offset %d", what, u, c.off)
	}
	return int(u), nil
}

// ref reads a constraint or tuple ref, which must name one of the n ids
// declared so far.
func (c *cursor) ref(n int, what string) (int, error) {
	at := c.off
	u, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if u >= uint64(n) {
		return 0, fmt.Errorf("stream: %s ref %d at frame offset %d names no declared %s (%d so far)", what, u, at, what, n)
	}
	return int(u), nil
}

// parse validates one 'B' body, adds its declarations to the stream's
// tables and returns its violations appended to vs — decoded through r —
// or, when r is nil, its records appended to recs. It is the one decode
// path of both views, so the record view accepts exactly what Next
// accepts. A body must be consumed exactly, so a partial trailing entry is
// corruption (the CRC passed, so the producer never wrote it), not
// truncation. On error the tables may hold some of the body's
// declarations; the error is the stream's terminal result.
func (d *dict) parse(body []byte, r *batchReader, vs []Violation, recs []Record) ([]Violation, []Record, error) {
	var f *frameDict
	if r == nil {
		f = &frameDict{src: d, body: body}
	} else {
		r.acquire()
	}
	c := cursor{body: body}
	for c.off < len(body) {
		tag := body[c.off]
		c.off++
		switch tag {
		case declConstraint:
			start := c.off
			kind, err := c.str()
			if err != nil {
				return vs, recs, err
			}
			id, err := c.str()
			if err != nil {
				return vs, recs, err
			}
			rel, err := c.str()
			if err != nil {
				return vs, recs, err
			}
			if r != nil {
				d.cons = append(d.cons, conDecl{kind: r.intern.get(kind), id: r.intern.get(id), rel: r.intern.get(rel)})
			} else {
				d.cons = append(d.cons, conDecl{raw: body[start:c.off:c.off], rawID: id})
			}
		case declTuple:
			start := c.off
			t, err := r.tuple(&c)
			if err != nil {
				return vs, recs, err
			}
			if r != nil {
				d.tuples = append(d.tuples, t)
			} else {
				d.raws = append(d.raws, body[start:c.off:c.off])
			}
		case entryViolation:
			con, err := c.ref(len(d.cons), "constraint")
			if err != nil {
				return vs, recs, err
			}
			row, err := c.varint()
			if err != nil {
				return vs, recs, err
			}
			at := c.off
			n, err := c.count("witness count")
			if err != nil {
				return vs, recs, err
			}
			if r != nil {
				// Decode in place: no by-value struct copy per violation.
				vs = append(vs, Violation{})
				v, cd := &vs[len(vs)-1], &d.cons[con]
				v.Kind, v.Constraint, v.Relation, v.Row = cd.kind, cd.id, cd.rel, int(row)
				r.reserveTups(n)
				start := len(r.tups)
				for range n {
					ref, err := c.ref(len(d.tuples), "tuple")
					if err != nil {
						return vs, recs, err
					}
					r.tups = append(r.tups, d.tuples[ref])
				}
				v.Witness = r.tups[start:len(r.tups):len(r.tups)]
				continue
			}
			rec := Record{f: f, row: int(row), con: con, wit: -1, off: uint32(at)}
			for i := range n {
				ref, err := c.ref(len(d.raws), "tuple")
				if err != nil {
					return vs, recs, err
				}
				if i == 0 {
					rec.wit = ref
				}
			}
			recs = append(recs, rec)
		default:
			return vs, recs, fmt.Errorf("stream: unknown batch entry tag 0x%02x at frame offset %d", tag, c.off-1)
		}
	}
	if f != nil {
		f.cons = d.cons[:len(d.cons):len(d.cons)]
		f.tups = d.raws[:len(d.raws):len(d.raws)]
	}
	return vs, recs, nil
}

// tuple reads a tuple's value count and values at c. A nil reader only
// validates them; otherwise the tuple is decoded into the value slab.
func (r *batchReader) tuple(c *cursor) ([]string, error) {
	nv, err := c.count("tuple arity")
	if err != nil {
		return nil, err
	}
	if r == nil {
		for range nv {
			if _, err := c.str(); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	r.reserveVals(nv)
	start := len(r.vals)
	for range nv {
		b, err := c.str()
		if err != nil {
			return nil, err
		}
		r.vals = append(r.vals, r.intern.get(b))
	}
	return r.vals[start:len(r.vals):len(r.vals)], nil
}

// decodeRecord fills v, which must be zero, with the wire violation of a
// record parse accepted.
func (r *batchReader) decodeRecord(rec *Record, v *Violation) {
	r.acquire()
	f := rec.f
	c := cursor{body: f.cons[rec.con].raw}
	kind, _ := c.str()
	id, _ := c.str()
	rel, _ := c.str()
	v.Kind = r.cached(&r.lastKind, kind)
	v.Constraint = r.cached(&r.lastConstraint, id)
	v.Relation = r.cached(&r.lastRelation, rel)
	v.Row = rec.row
	c = cursor{body: f.body, off: int(rec.off)}
	n, _ := c.uvarint()
	r.reserveTups(int(n))
	start := len(r.tups)
	for range n {
		ref, _ := c.uvarint()
		t, _ := r.tuple(&cursor{body: f.tups[ref]})
		r.tups = append(r.tups, t)
	}
	v.Witness = r.tups[start:len(r.tups):len(r.tups)]
}

// relayDict is NewRelayWriter's binary body state: the output ids it has
// declared, and for each source stream the output id of every source
// declaration a relayed record has cited. Each output id is declared the
// first time a relayed record cites it, exactly as NewWriter declares at
// first citation. A tuple lives on one shard and a constraint is declared
// once per shard stream, so constraints are matched across sources by
// their declaration bytes and tuples by (source, id): a router's merged
// stream then declares what a single node's would, in the same order.
type relayDict struct {
	srcs  map[*dict]*relayIDs
	last  *dict
	ids   *relayIDs
	cons  map[string]uint64 // output constraint ids, by declaration bytes
	ntups uint64
}

// relayIDs maps one source stream's ids to output ids plus one; zero marks
// an id no relayed record has cited yet.
type relayIDs struct{ cons, tups []uint64 }

// appendRecord appends rec to dst: the declarations it is the first to
// cite, then its 'V' entry with its refs renumbered.
func (rd *relayDict) appendRecord(dst []byte, rec *Record) []byte {
	f := rec.f
	if f.src != rd.last {
		if rd.srcs == nil {
			rd.srcs, rd.cons = map[*dict]*relayIDs{}, map[string]uint64{}
		}
		ids := rd.srcs[f.src]
		if ids == nil {
			ids = &relayIDs{}
			rd.srcs[f.src] = ids
		}
		rd.last, rd.ids = f.src, ids
	}
	ids := rd.ids
	if len(ids.cons) <= rec.con {
		ids.cons = append(ids.cons, make([]uint64, len(f.cons)-len(ids.cons))...)
	}
	if ids.cons[rec.con] == 0 {
		raw := f.cons[rec.con].raw
		con, ok := rd.cons[string(raw)]
		if !ok {
			con = uint64(len(rd.cons))
			rd.cons[string(raw)] = con
			dst = append(append(dst, declConstraint), raw...)
		}
		ids.cons[rec.con] = con + 1
	}
	// The entry is validated: its count and refs need no checks.
	c := cursor{body: f.body, off: int(rec.off)}
	n, _ := c.uvarint()
	refs := c.off
	if len(ids.tups) < len(f.tups) {
		ids.tups = append(ids.tups, make([]uint64, len(f.tups)-len(ids.tups))...)
	}
	for range n {
		ref, _ := c.uvarint()
		if ids.tups[ref] == 0 {
			rd.ntups++
			ids.tups[ref] = rd.ntups
			dst = append(append(dst, declTuple), f.tups[ref]...)
		}
	}
	dst = append(dst, entryViolation)
	dst = binary.AppendUvarint(dst, ids.cons[rec.con]-1)
	dst = binary.AppendVarint(dst, int64(rec.row))
	dst = binary.AppendUvarint(dst, n)
	c.off = refs
	for range n {
		ref, _ := c.uvarint()
		dst = binary.AppendUvarint(dst, ids.tups[ref]-1)
	}
	return dst
}

// batchReader is the decoding state of dict.parse and parseLine. kind,
// constraint and relation are nearly always runs of the same value, so
// each has a single-entry cache checked with one compare, no hash; witness
// values go through the hashed intern cache. Tuples and witness slices are
// carved out of per-reader slabs — two allocations per few thousand values
// or witnesses, not two per violation. Sub-slices handed out before a slab
// grows keep the old backing array, which stays valid; only the slab's
// tail is ever appended to.
type batchReader struct {
	intern *internCache

	lastKind, lastConstraint, lastRelation string

	vals []string
	tups [][]string

	// The NDJSON parser's scratch (parseLine): an unescaped string, and
	// the values and tuples of a witness before it moves to the slabs.
	esc     []byte
	tmpVals []string
	tmpTups [][]string
}

// internPool recycles intern caches between readers: a Decoder takes one
// at its first violation and returns it with its terminal result, so a
// stream of a few violations does not allocate a cache of its own.
var internPool = sync.Pool{New: func() any { return new(internCache) }}

// acquire gives the reader an intern cache.
func (r *batchReader) acquire() {
	if r.intern == nil {
		r.intern = internPool.Get().(*internCache)
	}
}

// release returns the reader's intern cache to the pool; the strings it
// handed out stay valid.
func (r *batchReader) release() {
	if r.intern != nil {
		internPool.Put(r.intern)
		r.intern = nil
	}
}

// cached returns b as a string, reusing *last when the bytes match it.
func (r *batchReader) cached(last *string, b []byte) string {
	if *last != string(b) {
		*last = r.intern.get(b)
	}
	return *last
}

// slabSize is the capacity witness slabs grow to: big enough to amortize
// allocation across hundreds of violations, small enough that a retired
// slab pins little memory once its violations are dropped. A reader's
// first slab is small and each next one doubles up to slabSize, so a
// stream of a few violations allocates for a few.
const slabSize = 4096

// nextSlab is the capacity of the slab that follows one of capacity prev
// when n more elements did not fit.
func nextSlab(prev, n int) int { return max(min(2*prev, slabSize), 32, n) }

// reserveVals guarantees room for n contiguous values at the slab tail,
// starting a fresh slab when the current one is full. Retired slabs stay
// with whatever violations reference them.
func (r *batchReader) reserveVals(n int) {
	if cap(r.vals)-len(r.vals) < n {
		r.vals = make([]string, 0, nextSlab(cap(r.vals), n))
	}
}

func (r *batchReader) reserveTups(n int) {
	if cap(r.tups)-len(r.tups) < n {
		r.tups = make([][]string, 0, nextSlab(cap(r.tups), n))
	}
}
