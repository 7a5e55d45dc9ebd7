package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cind/internal/stream"
	"cind/internal/wal"
)

// framedBody splits a binary violation stream into the concatenation of
// its 'B' bodies and its terminal payload — the stream's content without
// its batch boundaries, which follow flush timing.
func framedBody(t testing.TB, raw []byte) (bodies, terminal []byte) {
	t.Helper()
	for len(raw) > 0 {
		if len(raw) < wal.FrameHeader {
			t.Fatalf("torn frame header %q", raw)
		}
		n := int(binary.LittleEndian.Uint32(raw[:4]))
		if len(raw) < wal.FrameHeader+n || n == 0 {
			t.Fatalf("torn frame of %d bytes", n)
		}
		payload := raw[wal.FrameHeader : wal.FrameHeader+n]
		raw = raw[wal.FrameHeader+n:]
		if payload[0] != 'B' {
			if len(raw) != 0 {
				t.Fatalf("%d bytes after the terminal frame", len(raw))
			}
			return bodies, payload
		}
		bodies = append(bodies, payload[1:]...)
	}
	t.Fatal("binary stream without a terminal frame")
	return nil, nil
}

// TestRouterSplicesRecords: a router relays its shards' binary records
// with their refs renumbered in first-citation order, so the concatenated
// 'B' bodies of its binary stream equal a primed single node's byte for
// byte, and so does the trailer — at 1, 2 and 4 shards, on a report large
// enough to span many frames.
func TestRouterSplicesRecords(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			got, gotEnd, want, wantEnd := splicedStreams(t, n)
			if len(want) < 64<<10 {
				t.Fatalf("report of %d bytes fits one frame; the splice test needs several", len(want))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("router 'B' bodies (%d bytes) diverge from the single node's (%d bytes)", len(got), len(want))
			}
			if !bytes.Equal(gotEnd, wantEnd) {
				t.Fatalf("router terminal %q, single node %q", gotEnd, wantEnd)
			}
		})
	}
}

// TestRouterDeclaresEachTupleOnce: however many shards a router merges,
// its binary stream declares each witness tuple once — a dense report's
// tuples each witness many violations, and the relay maps every shard's
// declaration to one output id.
func TestRouterDeclaresEachTupleOnce(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			got, _, _, _ := splicedStreams(t, n)
			decls, distinct, violations := tupleDeclarations(t, got)
			if decls != distinct {
				t.Fatalf("router declared %d tuples for %d distinct ones", decls, distinct)
			}
			if violations < 4*distinct {
				t.Fatalf("%d violations over %d tuples: the fixture does not repeat witnesses", violations, distinct)
			}
		})
	}
}

// splicedStreams loads a dense dirty checking relation into a router over
// n shards and into a primed single node, and returns each one's binary
// violation stream as its concatenated 'B' bodies and terminal payload.
func splicedStreams(t *testing.T, n int) (got, gotEnd, want, wantEnd []byte) {
	t.Helper()
	dirty := denseDirtyCSV(600, 12)
	_, rts, _ := startFleet(t, n)
	rc := rts.Client()
	loadBankHTTP(t, rc, rts.URL, "bank")
	do(t, rc, http.MethodPut, rts.URL+"/datasets/bank?relation=checking", dirty, http.StatusOK)
	tc, turl := startPrimedTwin(t, "bank")
	do(t, tc, http.MethodPut, turl+"/datasets/bank?relation=checking", dirty, http.StatusOK)
	got, gotEnd = framedBody(t, rawStream(t, rc, rts.URL+"/datasets/bank/violations", stream.Binary))
	want, wantEnd = framedBody(t, rawStream(t, tc, turl+"/datasets/bank/violations", stream.Binary))
	return got, gotEnd, want, wantEnd
}

// tupleDeclarations walks concatenated 'B' bodies and counts their tuple
// declarations, the distinct tuples among them, and their violations.
func tupleDeclarations(t *testing.T, body []byte) (decls, distinct, violations int) {
	t.Helper()
	uv := func() uint64 {
		u, k := binary.Uvarint(body)
		if k <= 0 {
			t.Fatalf("bad uvarint in %q", body)
		}
		body = body[k:]
		return u
	}
	strs := func(n uint64) {
		for range n {
			body = body[uv():]
		}
	}
	seen := map[string]bool{}
	for len(body) > 0 {
		tag := body[0]
		body = body[1:]
		switch tag {
		case 'C':
			strs(3)
		case 'T':
			start := body
			strs(uv())
			seen[string(start[:len(start)-len(body)])] = true
			decls++
		case 'V':
			uv()
			if _, k := binary.Varint(body); k > 0 {
				body = body[k:]
			}
			for n := uv(); n > 0; n-- {
				uv()
			}
			violations++
		default:
			t.Fatalf("unknown entry tag %q", tag)
		}
	}
	return decls, len(seen), violations
}

// TestRouterNeverRelaysMalformedRecord: a shard whose 'B' frame passes its
// CRC but holds a malformed entry — a string overrunning the frame, or
// trailing garbage after a well-formed record — fails the routed stream:
// every client encoding ends in the terminal error record, the client's
// Decoder returns *stream.RemoteError, and no byte of the malformed frame
// reaches the client.
func TestRouterNeverRelaysMalformedRecord(t *testing.T) {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	// record appends a batch's declarations of phi2 and of a tuple of vals,
	// then a violation citing them.
	record := func(b []byte, vals ...string) []byte {
		b = str(str(str(append(b, 'C'), "cfd"), "phi2"), "checking")
		b = binary.AppendUvarint(append(b, 'T'), uint64(len(vals)))
		for _, v := range vals {
			b = str(b, v)
		}
		return append(b, 'V', 0, 0, 1, 0)
	}
	overrun := record([]byte{'B'}, "001", "MARKER-A", "addr", "555", "NYC")
	overrun = append(binary.AppendUvarint(append(overrun, 'T', 1), 200), "MARKER-B"...) // a 200-byte value of 8 bytes
	trailing := record([]byte{'B'}, "001", "MARKER-A", "addr", "555", "NYC")
	trailing = append(trailing, 'C', 0x03, 'M', 'A') // a kind string cut short
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"overrun", overrun},
		{"trailing-garbage", trailing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var body bytes.Buffer
			if _, err := wal.AppendFrame(&body, tc.frame); err != nil {
				t.Fatal(err)
			}
			if _, err := wal.AppendFrame(&body, []byte{'Z', 1}); err != nil {
				t.Fatal(err)
			}
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/violations") {
					w.Header().Set("Content-Type", stream.ContentTypeBinary)
					w.Write(body.Bytes())
					return
				}
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte("{}"))
			}))
			defer fake.Close()
			_, rts := startRouter(t, []string{fake.URL})
			rc := rts.Client()
			do(t, rc, http.MethodPut, rts.URL+"/datasets/bank/constraints", []byte(bankSpec(t)), http.StatusOK)
			// The router tracks the well-formed record's tuple, so only the
			// frame check can keep that record from the client.
			do(t, rc, http.MethodPut, rts.URL+"/datasets/bank?relation=checking",
				[]byte("an,cn,ca,cp,ab\n001,MARKER-A,addr,555,NYC\n"), http.StatusOK)

			for _, enc := range []stream.Encoding{stream.Binary, stream.NDJSON} {
				raw := rawStream(t, rc, rts.URL+"/datasets/bank/violations", enc)
				if bytes.Contains(raw, []byte("MARKER")) {
					t.Fatalf("%s: the malformed frame's bytes reached the client: %q", enc, raw)
				}
				vs, err := stream.DecodeAll(bytes.NewReader(raw), enc)
				var re *stream.RemoteError
				if !errors.As(err, &re) {
					t.Fatalf("%s: client decode = %v, want the router's error record", enc, err)
				}
				if !strings.Contains(re.Msg, "overruns frame") || len(vs) != 0 {
					t.Fatalf("%s: %d violations, then %q; want none, then the frame's decode error", enc, len(vs), re.Msg)
				}
			}
		})
	}
}
