package types

import "encoding/binary"

// Interner maps constant payloads to dense integer symbol IDs so that hot
// paths (bulk violation detection, projection hashing) can compare and hash
// values as machine words instead of rebuilding strings per tuple.
//
// Codes partition the uint64 space into two disjoint namespaces mirroring
// the value model: constants intern into odd codes (assigned densely in
// first-intern order), and chase variables map to even codes derived from
// their identity. Two values interned through the same Interner therefore
// have equal codes if and only if they are Eq — the property detection
// relies on to replace string projection keys with integer ones.
//
// An Interner is NOT safe for concurrent interning: callers must intern
// from one goroutine at a time (the detection engine interns only in its
// sequential planning phase, before workers fan out; the workers then only
// read the resulting codes). Codes are only meaningful relative to one
// Interner; they must never be persisted or compared across interners.
type Interner struct {
	ids map[string]uint64
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint64)}
}

// Const returns the symbol ID of the constant payload s, assigning the next
// odd code on first sight.
func (in *Interner) Const(s string) uint64 {
	id, ok := in.ids[s]
	if !ok {
		id = uint64(len(in.ids))<<1 | 1
		in.ids[s] = id
	}
	return id
}

// Code returns the symbol ID of a value: constants intern like Const;
// variables map to the even namespace by identity without touching the
// table.
func (in *Interner) Code(v Value) uint64 {
	if v.kind == Var {
		return uint64(v.id) << 1
	}
	return in.Const(v.str)
}

// Len returns the number of distinct constants interned so far.
func (in *Interner) Len() int { return len(in.ids) }

// AppendKey appends a set-membership encoding of v to dst: a tag byte
// keeping constants and variables in disjoint namespaces (so a constant
// "v1" never collides with variable v1), then a fixed-width identity for
// variables or a length-prefixed payload for constants. Length-prefixing
// makes concatenated encodings uniquely decodable even when constants
// contain control bytes (a terminator-based encoding would confuse
// ("a\x00x", "c") with ("a", "x\x00c")). It is the one shared encoder
// behind tuple keys (instance) and the reference projection keys (cfd,
// core); all three must agree on the format for the injectivity property
// to hold, which is why it lives here.
func AppendKey(dst []byte, v Value) []byte {
	if v.kind == Var {
		dst = append(dst, 1)
		id := uint64(v.id)
		for i := 0; i < 8; i++ {
			dst = append(dst, byte(id>>(8*i)))
		}
		return dst
	}
	dst = append(dst, 2)
	dst = binary.AppendUvarint(dst, uint64(len(v.str)))
	return append(dst, v.str...)
}

// AppendConstKey appends AppendKey's encoding of the constant whose bytes
// are s, without building the Value — the form a reader of raw bytes can
// look up AppendKey-keyed maps with. It repeats AppendKey's constant
// branch rather than sharing it, so AppendKey stays small enough to
// inline; TestAppendConstKeyMatchesAppendKey pins the two together.
func AppendConstKey(dst, s []byte) []byte {
	dst = append(dst, 2)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendTupleKey appends the AppendKey encoding of each value in order.
// Because each element is self-delimiting, the concatenation is injective
// on value sequences of any length.
func AppendTupleKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = AppendKey(dst, v)
	}
	return dst
}

// TupleKey returns the injective encoding of a value sequence as a string,
// presized via KeyLen. This is the one tuple-identity encoder shared by
// instance set membership, the detection session's row lookup, and
// violation identity keys; they must agree on the format, which is why it
// lives here.
func TupleKey(vals []Value) string {
	n := 0
	for _, v := range vals {
		n += KeyLen(v)
	}
	return string(AppendTupleKey(make([]byte, 0, n), vals))
}

// KeyLen returns the exact number of bytes AppendKey writes for v, so
// callers can presize buffers without duplicating the encoding layout.
func KeyLen(v Value) int {
	if v.kind == Var {
		return 9 // tag + 8-byte identity
	}
	n := len(v.str)
	varint := 1
	for x := uint64(n); x >= 0x80; x >>= 7 {
		varint++
	}
	return 1 + varint + n
}
