// Package stream is the violations wire layer: the negotiated response
// encodings of GET /datasets/{name}/violations, one Writer that keeps
// encoding and flushing off the caller's loop, and the decoder clients and
// tests consume streams through. The Writer has two instantiations: over
// engine violations (a single node's detection loop) and over decoded
// wire violations (a router relaying merged shard streams). Both flush
// the first violation eagerly and later bytes at 32KiB or 50ms, and for
// the same violations both write the same NDJSON and JSON bytes.
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
//     'V' a batch of violations (uvarint-framed strings), 'E' a terminal
//     error message, 'Z' the end-of-stream trailer carrying the violation
//     count. A stream that does not end in a 'Z' or 'E' frame is truncated.
//
// In every encoding the Decoder surfaces exactly one of three terminal
// states: clean end (io.EOF, with the trailer count cross-checked against
// the violations received), a server-reported error (*RemoteError), or
// truncation (ErrTruncated).
package stream

import (
	"fmt"
	"strings"

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
