package stream

import (
	"encoding/binary"
	"fmt"

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

// appendBinaryWire is appendBinaryViolation for an already-decoded wire
// violation — the relay path: a router re-encoding frames it decoded from
// a shard emits bodies in exactly the format above, so the two producers
// are indistinguishable to the Decoder.
func appendBinaryWire(dst []byte, v Violation) []byte {
	dst = appendStr(dst, v.Kind)
	dst = appendStr(dst, v.Constraint)
	dst = appendStr(dst, v.Relation)
	dst = binary.AppendVarint(dst, int64(v.Row))
	dst = binary.AppendUvarint(dst, uint64(len(v.Witness)))
	for _, t := range v.Witness {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		for _, val := range t {
			dst = appendStr(dst, val)
		}
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

// batchReader decodes a 'V' frame body with bounds checking on every read.
// kind/constraint/relation are nearly always runs of the same value, so
// each has a single-entry cache checked with one compare, no hash; witness
// values go through the hashed intern cache. Witness slices are carved out
// of per-reader slabs — two allocations per frame in the steady state, not
// two per violation. Sub-slices handed out before a slab grows keep the
// old backing array, which stays valid; only the slab's tail is ever
// appended to.
type batchReader struct {
	body   []byte
	off    int
	intern *internCache

	lastKind, lastConstraint, lastRelation string

	vals []string
	tups [][]string
}

// cachedStr reads a length-prefixed string, reusing *last when the bytes
// match it.
func (r *batchReader) cachedStr(last *string) (string, error) {
	u, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if u > uint64(len(r.body)-r.off) {
		return "", fmt.Errorf("stream: string of %d bytes overruns frame at offset %d", u, r.off)
	}
	b := r.body[r.off : r.off+int(u)]
	r.off += int(u)
	if *last != string(b) {
		*last = r.intern.get(b)
	}
	return *last, nil
}

func (r *batchReader) uvarint() (uint64, error) {
	// Single-byte values — almost every length, count and arity — skip
	// the generic decoder.
	if r.off < len(r.body) {
		if b := r.body[r.off]; b < 0x80 {
			r.off++
			return uint64(b), nil
		}
	}
	u, n := binary.Uvarint(r.body[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("stream: bad uvarint at frame offset %d", r.off)
	}
	r.off += n
	return u, nil
}

func (r *batchReader) varint() (int64, error) {
	v, n := binary.Varint(r.body[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("stream: bad varint at frame offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *batchReader) str() (string, error) {
	u, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if u > uint64(len(r.body)-r.off) {
		return "", fmt.Errorf("stream: string of %d bytes overruns frame at offset %d", u, r.off)
	}
	s := r.intern.get(r.body[r.off : r.off+int(u)])
	r.off += int(u)
	return s, nil
}

// slabSize is the capacity of a fresh witness slab: big enough to
// amortize allocation across hundreds of violations, small enough that a
// retired slab pins little memory once its violations are dropped.
const slabSize = 4096

// reserveVals guarantees room for n contiguous values at the slab tail,
// starting a fresh slab when the current one is full. Retired slabs stay
// with whatever violations reference them.
func (r *batchReader) reserveVals(n int) {
	if cap(r.vals)-len(r.vals) < n {
		r.vals = make([]string, 0, max(slabSize, n))
	}
}

func (r *batchReader) reserveTups(n int) {
	if cap(r.tups)-len(r.tups) < n {
		r.tups = make([][]string, 0, max(slabSize, n))
	}
}

// decode parses a 'V' frame body, appending its violations to out. The
// body must be consumed exactly: a partial trailing violation is
// corruption (the CRC passed, so the producer never wrote it), not
// truncation. On error the appended prefix is returned with the error so
// the caller can discard it wholesale.
func (r *batchReader) decode(body []byte, out []Violation) ([]Violation, error) {
	r.body, r.off = body, 0
	if r.intern == nil {
		r.intern = new(internCache)
	}
	for r.off < len(body) {
		// Build in place: append the zero value first, fill through the
		// pointer, and drop it again on error — no by-value struct copy
		// per violation.
		out = append(out, Violation{})
		v := &out[len(out)-1]
		var err error
		if v.Kind, err = r.cachedStr(&r.lastKind); err != nil {
			return out[:len(out)-1], err
		}
		if v.Constraint, err = r.cachedStr(&r.lastConstraint); err != nil {
			return out[:len(out)-1], err
		}
		if v.Relation, err = r.cachedStr(&r.lastRelation); err != nil {
			return out[:len(out)-1], err
		}
		row, err := r.varint()
		if err != nil {
			return out[:len(out)-1], err
		}
		v.Row = int(row)
		nt, err := r.uvarint()
		if err != nil {
			return out[:len(out)-1], err
		}
		if nt > uint64(len(body)-r.off) {
			return out[:len(out)-1], fmt.Errorf("stream: witness count %d overruns frame at offset %d", nt, r.off)
		}
		r.reserveTups(int(nt))
		tupStart := len(r.tups)
		for i := uint64(0); i < nt; i++ {
			nv, err := r.uvarint()
			if err != nil {
				return out[:len(out)-1], err
			}
			if nv > uint64(len(body)-r.off) {
				return out[:len(out)-1], fmt.Errorf("stream: tuple arity %d overruns frame at offset %d", nv, r.off)
			}
			r.reserveVals(int(nv))
			valStart := len(r.vals)
			for j := uint64(0); j < nv; j++ {
				s, err := r.str()
				if err != nil {
					return out[:len(out)-1], err
				}
				r.vals = append(r.vals, s)
			}
			r.tups = append(r.tups, r.vals[valStart:len(r.vals):len(r.vals)])
		}
		v.Witness = r.tups[tupStart:len(r.tups):len(r.tups)]
	}
	return out, nil
}
