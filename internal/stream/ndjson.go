package stream

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// ndjsonLine is one NDJSON line's members: a violation's, the trailer's or
// the error record's — what encoding/json decodes a line into.
type ndjsonLine struct {
	Violation
	Done  *bool   `json:"done"`
	Count *int64  `json:"count"`
	Error *string `json:"error"`
}

// emptyVals and emptyTups are the decoded form of an empty JSON array:
// empty but not nil, as encoding/json decodes it.
var (
	emptyVals = []string{}
	emptyTups = [][]string{}
)

// parseLine decodes one NDJSON line, trimmed of surrounding whitespace,
// into l, which it zeroes first. Lines in the grammar the Writer emits —
// appendJSON's violation object, {"done":true,"count":N} and
// {"error":S}, with no whitespace between tokens — are parsed by hand,
// with strings interned and witnesses carved out of the binary path's
// slabs. Any other line — members reordered, unknown or misspelt,
// whitespace, escapes appendJSONString never writes — goes to
// encoding/json, so the decoder accepts and rejects exactly what
// encoding/json does.
func (r *batchReader) parseLine(line []byte, l *ndjsonLine) error {
	*l = ndjsonLine{}
	if r.jsonLine(line, l) {
		return nil
	}
	*l = ndjsonLine{}
	return json.Unmarshal(line, l)
}

// jsonLine is parseLine's hand-written parser: it reports whether line is
// in the Writer's grammar, and decodes it into l when it is.
func (r *batchReader) jsonLine(line []byte, l *ndjsonLine) bool {
	c := jsonCursor{b: line}
	switch {
	case c.lit(`{"kind":`):
		if !r.jsonViolation(&c, &l.Violation) {
			return false
		}
	case c.lit(`{"done":true,"count":`):
		n, ok := c.int(64)
		if !ok {
			return false
		}
		done := true
		l.Done, l.Count = &done, &n
	case c.lit(`{"error":`):
		b, ok := r.jsonStr(&c)
		if !ok {
			return false
		}
		msg := string(b)
		l.Error = &msg
	default:
		return false
	}
	return c.lit(`}`) && c.off == len(line)
}

// jsonViolation parses appendJSON's members after `{"kind":`, up to but
// not including the closing brace.
func (r *batchReader) jsonViolation(c *jsonCursor, v *Violation) bool {
	r.acquire()
	b, ok := r.jsonStr(c)
	if !ok {
		return false
	}
	v.Kind = r.cached(&r.lastKind, b)
	if !c.lit(`,"constraint":`) {
		return false
	}
	if b, ok = r.jsonStr(c); !ok {
		return false
	}
	v.Constraint = r.cached(&r.lastConstraint, b)
	if !c.lit(`,"relation":`) {
		return false
	}
	if b, ok = r.jsonStr(c); !ok {
		return false
	}
	v.Relation = r.cached(&r.lastRelation, b)
	if !c.lit(`,"row":`) {
		return false
	}
	row, ok := c.int(strconv.IntSize)
	if !ok || !c.lit(`,"witness":`) {
		return false
	}
	v.Row = int(row)
	if c.lit(`null`) {
		return true
	}
	if !c.lit(`[`) {
		return false
	}
	if c.lit(`]`) {
		v.Witness = emptyTups
		return true
	}
	r.tmpTups = r.tmpTups[:0]
	for {
		t, ok := r.jsonTuple(c)
		if !ok {
			return false
		}
		r.tmpTups = append(r.tmpTups, t)
		if c.lit(`]`) {
			break
		}
		if !c.lit(`,`) {
			return false
		}
	}
	r.reserveTups(len(r.tmpTups))
	start := len(r.tups)
	r.tups = append(r.tups, r.tmpTups...)
	v.Witness = r.tups[start:len(r.tups):len(r.tups)]
	return true
}

// jsonTuple parses one witness tuple: null or an array of strings.
func (r *batchReader) jsonTuple(c *jsonCursor) ([]string, bool) {
	if c.lit(`null`) {
		return nil, true
	}
	if !c.lit(`[`) {
		return nil, false
	}
	if c.lit(`]`) {
		return emptyVals, true
	}
	r.tmpVals = r.tmpVals[:0]
	for {
		b, ok := r.jsonStr(c)
		if !ok {
			return nil, false
		}
		r.tmpVals = append(r.tmpVals, r.intern.get(b))
		if c.lit(`]`) {
			break
		}
		if !c.lit(`,`) {
			return nil, false
		}
	}
	r.reserveVals(len(r.tmpVals))
	start := len(r.vals)
	r.vals = append(r.vals, r.tmpVals...)
	return r.vals[start:len(r.vals):len(r.vals)], true
}

// jsonStr parses a JSON string and returns its value's bytes: a view of
// the line when the string holds no escape, else the value unescaped into
// r.esc — either way valid only until the next call. It declines what
// appendJSONString never writes and encoding/json treats specially: raw
// control bytes, invalid UTF-8 and escaped surrogates.
func (r *batchReader) jsonStr(c *jsonCursor) ([]byte, bool) {
	if !c.lit(`"`) {
		return nil, false
	}
	start, escaped := c.off, false
	r.esc = r.esc[:0]
	for c.off < len(c.b) {
		switch b := c.b[c.off]; {
		case b == '"':
			s := c.b[start:c.off]
			c.off++
			if escaped {
				r.esc = append(r.esc, s...)
				return r.esc, true
			}
			return s, true
		case b == '\\':
			r.esc = append(r.esc, c.b[start:c.off]...)
			escaped = true
			if !r.unescape(c) {
				return nil, false
			}
			start = c.off
		case b < ' ':
			return nil, false
		case b < utf8.RuneSelf:
			c.off++
		default:
			rn, size := utf8.DecodeRune(c.b[c.off:])
			if rn == utf8.RuneError && size == 1 {
				return nil, false
			}
			c.off += size
		}
	}
	return nil, false
}

// unescape appends the value of the escape at c.off to r.esc and moves
// past it.
func (r *batchReader) unescape(c *jsonCursor) bool {
	if c.off+1 >= len(c.b) {
		return false
	}
	e := c.b[c.off+1]
	c.off += 2
	switch e {
	case '"', '\\', '/':
		r.esc = append(r.esc, e)
	case 'b':
		r.esc = append(r.esc, '\b')
	case 'f':
		r.esc = append(r.esc, '\f')
	case 'n':
		r.esc = append(r.esc, '\n')
	case 'r':
		r.esc = append(r.esc, '\r')
	case 't':
		r.esc = append(r.esc, '\t')
	case 'u':
		if c.off+4 > len(c.b) {
			return false
		}
		var u rune
		for _, h := range c.b[c.off : c.off+4] {
			switch {
			case h >= '0' && h <= '9':
				u = u<<4 | rune(h-'0')
			case h >= 'a' && h <= 'f':
				u = u<<4 | rune(h-'a'+10)
			case h >= 'A' && h <= 'F':
				u = u<<4 | rune(h-'A'+10)
			default:
				return false
			}
		}
		if utf8.RuneLen(u) < 0 {
			return false // a surrogate half
		}
		r.esc = utf8.AppendRune(r.esc, u)
		c.off += 4
	default:
		return false
	}
	return true
}

// jsonCursor walks one NDJSON line.
type jsonCursor struct {
	b   []byte
	off int
}

// lit consumes s when the line continues with it.
func (c *jsonCursor) lit(s string) bool {
	if len(c.b)-c.off < len(s) || string(c.b[c.off:c.off+len(s)]) != s {
		return false
	}
	c.off += len(s)
	return true
}

// int parses an integer in JSON's grammar — an optional minus, then 0 or
// a digit run without a leading zero — that fits in bits bits. A fraction
// or exponent is left unconsumed, so the caller's next literal fails.
func (c *jsonCursor) int(bits int) (int64, bool) {
	neg := c.lit(`-`)
	limit := uint64(1)<<(bits-1) - 1 // the largest magnitude
	if neg {
		limit++
	}
	digits := c.off
	var u uint64
	for ; c.off < len(c.b) && c.b[c.off] >= '0' && c.b[c.off] <= '9'; c.off++ {
		d := uint64(c.b[c.off] - '0')
		if u > (limit-d)/10 {
			return 0, false // out of range
		}
		u = u*10 + d
	}
	if n := c.off - digits; n == 0 || n > 1 && c.b[digits] == '0' {
		return 0, false
	}
	if neg {
		return int64(-u), true
	}
	return int64(u), true
}
