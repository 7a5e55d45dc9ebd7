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
// its 'V' bodies and its terminal payload — the stream's content without
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
		if payload[0] != 'V' {
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
// verbatim, so the concatenated 'V' bodies of its binary stream equal a
// primed single node's byte for byte, and so does the trailer — at 1, 2
// and 4 shards, on a report large enough to span many frames.
func TestRouterSplicesRecords(t *testing.T) {
	dirty := denseDirtyCSV(300, 12)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			_, rts, _ := startFleet(t, n)
			rc := rts.Client()
			loadBankHTTP(t, rc, rts.URL, "bank")
			do(t, rc, http.MethodPut, rts.URL+"/datasets/bank?relation=checking", dirty, http.StatusOK)
			tc, turl := startPrimedTwin(t, "bank")
			do(t, tc, http.MethodPut, turl+"/datasets/bank?relation=checking", dirty, http.StatusOK)

			got, gotEnd := framedBody(t, rawStream(t, rc, rts.URL+"/datasets/bank/violations", stream.Binary))
			want, wantEnd := framedBody(t, rawStream(t, tc, turl+"/datasets/bank/violations", stream.Binary))
			if len(want) < 64<<10 {
				t.Fatalf("report of %d bytes fits one frame; the splice test needs several", len(want))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("router 'V' bodies (%d bytes) diverge from the single node's (%d bytes)", len(got), len(want))
			}
			if !bytes.Equal(gotEnd, wantEnd) {
				t.Fatalf("router terminal %q, single node %q", gotEnd, wantEnd)
			}
		})
	}
}

// TestRouterNeverRelaysMalformedRecord: a shard whose 'V' frame passes its
// CRC but holds a malformed record — a string overrunning the frame, or
// trailing garbage after a well-formed record — fails the routed stream:
// every client encoding ends in the terminal error record, the client's
// Decoder returns *stream.RemoteError, and no byte of the malformed frame
// reaches the client.
func TestRouterNeverRelaysMalformedRecord(t *testing.T) {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	record := func(b []byte, vals ...string) []byte {
		b = str(str(str(b, "cfd"), "phi2"), "checking")
		b = binary.AppendVarint(b, 0)
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, uint64(len(vals)))
		for _, v := range vals {
			b = str(b, v)
		}
		return b
	}
	overrun := record([]byte{'V'}, "001", "MARKER-A", "addr", "555")
	overrun = append(binary.AppendUvarint(overrun, 200), "MARKER-B"...) // a 200-byte value of 8 bytes
	trailing := record([]byte{'V'}, "001", "MARKER-A", "addr", "555", "NYC")
	trailing = append(trailing, 0x03, 'M', 'A') // a kind string cut short
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
