package stream

import (
	"encoding/binary"
	"fmt"
	"sync"

	"cind/internal/detect"
	"cind/internal/instance"
)

// Binary 'V' frame body: violations back to back, each
//
//	uvarint len + bytes   kind
//	uvarint len + bytes   constraint id
//	uvarint len + bytes   relation
//	zigzag varint         row
//	uvarint               witness tuple count
//	  per tuple: uvarint value count, then uvarint len + bytes per value
//
// The framing layer (internal/wal) already guarantees the body is intact
// (CRC) and bounded (MaxRecord), so the body codec only has to be exact:
// every length is validated against the remaining bytes, and trailing
// garbage is an error, never silently skipped.

// appendBinaryViolation appends one violation's binary form to dst,
// straight from the engine value — no intermediate wire struct. The
// witness tuples come from AsCFD/AsCIND rather than Witness(), which
// would allocate a fresh slice per violation; callers reuse dst as
// scratch, so the steady state is allocation-free.
func appendBinaryViolation(dst []byte, v detect.Violation) []byte {
	dst = appendStr(dst, v.Kind().String())
	dst = appendStr(dst, v.ConstraintID())
	dst = appendStr(dst, v.Relation())
	dst = binary.AppendVarint(dst, int64(v.Row()))
	if cv, ok := v.AsCFD(); ok {
		dst = binary.AppendUvarint(dst, 2)
		dst = appendTuple(dst, cv.T1)
		dst = appendTuple(dst, cv.T2)
	} else if iv, ok := v.AsCIND(); ok {
		dst = binary.AppendUvarint(dst, 1)
		dst = appendTuple(dst, iv.T)
	} else {
		dst = binary.AppendUvarint(dst, 0)
	}
	return dst
}

func appendTuple(dst []byte, t instance.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, val := range t {
		dst = appendStr(dst, val.String())
	}
	return dst
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

// Record is one violation of a 'V' body left undecoded: its bytes exactly
// as the body carries them, plus views of the three fields a router keys
// it by. Decoder.NextRecord hands records out only after validating their
// whole frame, so a Record is always well formed. It is what a router
// relays: a binary client gets the bytes verbatim, and only the NDJSON
// and JSON encodings decode it.
type Record struct {
	raw  []byte
	row  int
	cons [2]uint32 // constraint id, as offsets into raw
	wit  [2]uint32 // first witness tuple, as offsets into raw; empty when none
}

// Constraint returns the bytes of the violated constraint's id.
func (r *Record) Constraint() []byte { return r.raw[r.cons[0]:r.cons[1]] }

// Row returns the violation's pattern row.
func (r *Record) Row() int { return r.row }

// Witness returns the record's first witness tuple in its wire form — a
// uvarint value count, then each value as a uvarint length and its bytes —
// or nil when the record carries no witness.
func (r *Record) Witness() []byte {
	if r.wit[1] == 0 {
		return nil
	}
	return r.raw[r.wit[0]:r.wit[1]]
}

// cursor reads a 'V' body with bounds checking on every read.
type cursor struct {
	body []byte
	off  int
}

func (c *cursor) uvarint() (uint64, error) {
	// Single-byte values — almost every length, count and arity — skip
	// the generic decoder.
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

// parseRecord validates the record starting at body[off:] and returns it
// with the offset just past it. Every length is checked against the bytes
// left, so a record cut short is an error; a body must be consumed
// exactly, so a partial trailing record is corruption (the CRC passed, so
// the producer never wrote it), not truncation. Given a batchReader, it
// also decodes the record into v, which must be zero, in the same pass —
// Next's path; the record view passes nil and builds no strings.
func parseRecord(body []byte, off int, dec *batchReader, v *Violation) (Record, int, error) {
	c := cursor{body: body, off: off}
	var rec Record
	kind, err := c.str()
	if err != nil {
		return rec, 0, err
	}
	id, err := c.str()
	if err != nil {
		return rec, 0, err
	}
	rec.cons = [2]uint32{uint32(c.off - len(id) - off), uint32(c.off - off)}
	rel, err := c.str()
	if err != nil {
		return rec, 0, err
	}
	row, err := c.varint()
	if err != nil {
		return rec, 0, err
	}
	rec.row = int(row)
	nt, err := c.count("witness count")
	if err != nil {
		return rec, 0, err
	}
	tupStart := 0
	if dec != nil {
		dec.acquire()
		v.Kind = dec.cached(&dec.lastKind, kind)
		v.Constraint = dec.cached(&dec.lastConstraint, id)
		v.Relation = dec.cached(&dec.lastRelation, rel)
		v.Row = rec.row
		dec.reserveTups(nt)
		tupStart = len(dec.tups)
	}
	for i := 0; i < nt; i++ {
		start := c.off
		nv, err := c.count("tuple arity")
		if err != nil {
			return rec, 0, err
		}
		valStart := 0
		if dec != nil {
			dec.reserveVals(nv)
			valStart = len(dec.vals)
		}
		for j := 0; j < nv; j++ {
			b, err := c.str()
			if err != nil {
				return rec, 0, err
			}
			if dec != nil {
				dec.vals = append(dec.vals, dec.intern.get(b))
			}
		}
		if dec != nil {
			dec.tups = append(dec.tups, dec.vals[valStart:len(dec.vals):len(dec.vals)])
		}
		if i == 0 {
			rec.wit = [2]uint32{uint32(start - off), uint32(c.off - off)}
		}
	}
	if dec != nil {
		v.Witness = dec.tups[tupStart:len(dec.tups):len(dec.tups)]
	}
	rec.raw = body[off:c.off:c.off]
	return rec, c.off, nil
}

// appendRecord is the relay's binary body function: a record is spliced
// verbatim.
func appendRecord(dst []byte, r Record) []byte { return append(dst, r.raw...) }

// batchReader is the decoding state of parseRecord and parseLine. kind,
// constraint and relation are nearly always runs of the same value, so
// each has a single-entry cache checked with one compare, no hash; witness
// values go through the hashed intern cache. Witness slices are carved out
// of per-reader slabs — two allocations per frame in the steady state, not
// two per violation. Sub-slices handed out before a slab grows keep the
// old backing array, which stays valid; only the slab's tail is ever
// appended to.
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

// decode fills v, which must be zero, with the wire violation of a record
// parseRecord accepted.
func (r *batchReader) decode(rec *Record, v *Violation) {
	parseRecord(rec.raw, 0, r, v)
}
