// Package stream is the violations wire layer: the negotiated response
// encodings of GET /datasets/{name}/violations, one Writer that keeps
// encoding and flushing off the caller's loop, and the decoder clients and
// tests consume streams through. The Writer has two instantiations: over
// engine violations (a single node's detection loop) and over undecoded
// binary records (a router relaying merged shard streams, which a binary
// client receives with their ids renumbered). Both flush the first violation
// eagerly and later bytes at 32KiB or 50ms, and for the same violations
// both write the same bytes in every encoding. The Decoder yields decoded
// violations (Next) or, for a relay, the same stream's validated records
// (NextRecord).
//
// Three encodings are served, selected by the request's Accept header
// (Negotiate); NDJSON stays the default so existing clients see no change:
//
//   - NDJSON (application/x-ndjson): one JSON violation per line, ending
//     with a trailer line {"done":true,"count":N} — or, after a
//     cancellation, a final {"error":...} line — so a complete stream is
//     distinguishable from a truncated one.
//   - JSONArray (application/json): one JSON document
//     {"violations":[...],"done":true,"count":N} (an "error" member
//     replaces done/count after a cancellation) for clients that want a
//     single parseable body.
//   - Binary (application/x-cind-frames): length-prefixed frames in the
//     WAL's [u32le len][u32le IEEE CRC32][payload] framing discipline
//     (internal/wal), so the same torn-tail properties hold: corruption is
//     detected, never misparsed. Each payload is a one-byte tag plus body —
//     'B' a batch of declarations and violations, 'E' a terminal error
//     message, 'Z' the end-of-stream trailer carrying the violation count.
//     A stream that does not end in a 'Z' or 'E' frame is truncated. A
//     batch declares each constraint and witness tuple once per stream,
//     before the first violation that cites it, and each violation cites
//     them by id (binary.go), so a tuple's values cross the wire once
//     however many violations it witnesses. Decoded violations that cite
//     one tuple share its []string: callers must not mutate witnesses.
//
// In every encoding the Decoder surfaces exactly one of three terminal
// states: clean end (io.EOF, with the trailer count cross-checked against
// the violations received), a server-reported error (*RemoteError), or
// truncation (ErrTruncated).
package stream

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"cind/internal/detect"
)

// Encoding identifies one negotiated violations-stream encoding.
type Encoding uint8

const (
	// NDJSON is the default: one violation JSON object per line plus a
	// trailer line.
	NDJSON Encoding = iota
	// JSONArray is a single JSON document wrapping the violation array.
	JSONArray
	// Binary is CRC-framed batches in the WAL framing discipline.
	Binary
)

// Content types served and negotiated. ContentTypeBinary is cindserve's
// own: the WAL frame discipline applied to a response body.
const (
	ContentTypeNDJSON = "application/x-ndjson"
	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-cind-frames"
)

// ContentType returns the Content-Type header value for the encoding.
func (e Encoding) ContentType() string {
	switch e {
	case JSONArray:
		return ContentTypeJSON
	case Binary:
		return ContentTypeBinary
	}
	return ContentTypeNDJSON
}

// String renders the encoding as its flag spelling (cindviolate -encoding).
func (e Encoding) String() string {
	switch e {
	case JSONArray:
		return "json"
	case Binary:
		return "binary"
	}
	return "ndjson"
}

// ParseEncoding parses the flag spelling: "ndjson", "json" or "binary".
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "ndjson":
		return NDJSON, nil
	case "json":
		return JSONArray, nil
	case "binary":
		return Binary, nil
	}
	return NDJSON, fmt.Errorf("stream: bad encoding %q (want ndjson, json or binary)", s)
}

// Negotiate maps an Accept header to the encoding served. The first
// recognized media type in the list wins (quality parameters are ignored —
// the list order is the preference order for every client in practice);
// an empty, wildcard or unrecognized Accept serves NDJSON, so existing
// clients and plain curl see exactly the pre-negotiation behavior.
func Negotiate(accept string) Encoding {
	for _, part := range strings.Split(accept, ",") {
		mt := part
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = mt[:i]
		}
		switch strings.ToLower(strings.TrimSpace(mt)) {
		case ContentTypeNDJSON:
			return NDJSON
		case ContentTypeJSON:
			return JSONArray
		case ContentTypeBinary:
			return Binary
		}
	}
	return NDJSON
}

// Violation is the wire form of one violation, identical across encodings:
// the JSON member names below for NDJSON and JSONArray, the same fields in
// frame order for Binary. Witness tuples are value arrays in schema column
// order; for a CFD the witness is the offending pair [t1, t2] (t1 == t2
// for single-tuple violations), for a CIND the single unmatched LHS tuple.
type Violation struct {
	Kind       string     `json:"kind"`
	Constraint string     `json:"constraint"`
	Relation   string     `json:"relation"`
	Row        int        `json:"row"`
	Witness    [][]string `json:"witness"`
}

// appendJSON appends v's JSON form, byte for byte what encoding/json
// marshals for it, without reflection or an intermediate buffer.
func appendJSON(dst []byte, v *Violation) []byte {
	dst = append(dst, `{"kind":`...)
	dst = appendJSONString(dst, v.Kind)
	dst = append(dst, `,"constraint":`...)
	dst = appendJSONString(dst, v.Constraint)
	dst = append(dst, `,"relation":`...)
	dst = appendJSONString(dst, v.Relation)
	dst = append(dst, `,"row":`...)
	dst = strconv.AppendInt(dst, int64(v.Row), 10)
	dst = append(dst, `,"witness":`...)
	if v.Witness == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, t := range v.Witness {
			if i > 0 {
				dst = append(dst, ',')
			}
			if t == nil {
				dst = append(dst, "null"...)
				continue
			}
			dst = append(dst, '[')
			for j, s := range t {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendJSONString(dst, s)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// does with its default HTML escaping: '"' and '\\' and the control bytes
// \b \f \n \r \t get short escapes, other control bytes and '<', '>',
// '&' get \u00XX, an invalid UTF-8 byte becomes \ufffd, and U+2028 and
// U+2029 are escaped for JSONP.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Convert renders an engine violation into its wire form.
func Convert(v detect.Violation) Violation {
	ts := v.Witness()
	out := Violation{
		Kind:       v.Kind().String(),
		Constraint: v.ConstraintID(),
		Relation:   v.Relation(),
		Row:        v.Row(),
		Witness:    make([][]string, len(ts)),
	}
	for i, t := range ts {
		row := make([]string, len(t))
		for j, val := range t {
			row[j] = val.String()
		}
		out.Witness[i] = row
	}
	return out
}
