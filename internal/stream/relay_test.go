package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// wireFixture builds wire-form violations directly, without the engine:
// the relay writer's input is whatever records a shard streamed, so its
// tests need not go through Convert.
func wireFixture(n int) []Violation {
	out := make([]Violation, n)
	for i := range out {
		out[i] = Violation{
			Kind:       []string{"cfd", "cind"}[i%2],
			Constraint: fmt.Sprintf("phi%d", i%5),
			Relation:   "checking",
			Row:        i % 3,
			Witness:    [][]string{{fmt.Sprintf("%03d", i), "Cust", "Addr", "555", "NYC"}},
		}
	}
	return out
}

// wireBody encodes wire violations as one 'B' body, declaring each
// distinct constraint and tuple at its first citation — what a shard's
// NewWriter emits for the engine violations they came from, whose tuples
// are one row each.
func wireBody(vs []Violation) []byte {
	cons, tups := map[string]uint64{}, map[string]uint64{}
	var body []byte
	for _, v := range vs {
		decl := string(appendStr(appendStr(appendStr(nil, v.Kind), v.Constraint), v.Relation))
		con, ok := cons[decl]
		if !ok {
			con = uint64(len(cons))
			cons[decl] = con
			body = append(append(body, declConstraint), decl...)
		}
		refs := make([]uint64, len(v.Witness))
		for i, t := range v.Witness {
			raw := binary.AppendUvarint(nil, uint64(len(t)))
			for _, val := range t {
				raw = appendStr(raw, val)
			}
			id, ok := tups[string(raw)]
			if !ok {
				id = uint64(len(tups))
				tups[string(raw)] = id
				body = append(append(body, declTuple), raw...)
			}
			refs[i] = id
		}
		body = append(body, entryViolation)
		body = binary.AppendUvarint(body, con)
		body = binary.AppendVarint(body, int64(v.Row))
		body = binary.AppendUvarint(body, uint64(len(refs)))
		for _, r := range refs {
			body = binary.AppendUvarint(body, r)
		}
	}
	return body
}

// recordsOf encodes wire violations into one 'B' body and scans it back
// into the records a relay receives.
func recordsOf(t testing.TB, vs []Violation) []Record {
	t.Helper()
	_, recs, err := new(dict).parse(wireBody(vs), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestWireWriterRoundTrip(t *testing.T) {
	for _, enc := range allEncodings {
		t.Run(enc.String(), func(t *testing.T) {
			vs := wireFixture(7)
			recs := recordsOf(t, vs)
			var buf bytes.Buffer
			w := NewRelayWriter(&buf, nil, enc)
			for i := range recs {
				if !w.Send(recs[i]) {
					t.Fatalf("Send %d = false", i)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if w.Count() != 7 {
				t.Fatalf("Count = %d, want 7", w.Count())
			}
			got, err := DecodeAll(&buf, enc)
			if err != nil {
				t.Fatalf("DecodeAll: %v", err)
			}
			if !reflect.DeepEqual(got, vs) {
				t.Fatalf("round trip diverged:\ngot  %+v\nwant %+v", got, vs)
			}
		})
	}
}

func TestWireWriterEmptyStream(t *testing.T) {
	for _, enc := range allEncodings {
		var buf bytes.Buffer
		w := NewRelayWriter(&buf, nil, enc)
		if err := w.Close(); err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		got, err := DecodeAll(&buf, enc)
		if err != nil {
			t.Fatalf("%s: DecodeAll: %v", enc, err)
		}
		if len(got) != 0 {
			t.Fatalf("%s: empty stream decoded %d violations", enc, len(got))
		}
	}
}

func TestWireWriterCloseError(t *testing.T) {
	for _, enc := range allEncodings {
		var buf bytes.Buffer
		w := NewRelayWriter(&buf, nil, enc)
		vs := wireFixture(2)
		for _, rec := range recordsOf(t, vs) {
			w.Send(rec)
		}
		w.CloseError("shard 1 went away")
		got, err := DecodeAll(&buf, enc)
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("%s: DecodeAll err = %v, want RemoteError", enc, err)
		}
		if re.Msg != "shard 1 went away" {
			t.Fatalf("%s: relayed message %q", enc, re.Msg)
		}
		if !reflect.DeepEqual(got, vs) {
			t.Fatalf("%s: violations before the error diverged:\ngot  %+v\nwant %+v", enc, got, vs)
		}
	}
}
