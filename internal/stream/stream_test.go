package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	cind "cind"

	"cind/internal/detect"
	"cind/internal/wal"
)

// testSpec is a two-constraint fixture: duplicate keys in r violate phi,
// and every r tuple whose a-value is missing from s violates psi — so a
// small CSV yields a mixed CFD/CIND violation stream.
const testSpec = `
relation r(a, b, c)
relation s(a)

cfd phi: r(a -> b) {
  (_ || _)
}

cind psi: r[a; nil] <= s[a; nil] {
  (_ || _)
}
`

// testViolations runs the real engine over a generated instance of rows
// r tuples, three to a key, and returns the violations in deterministic
// (parallelism-1) stream order.
func testViolations(t testing.TB, rows int) []detect.Violation {
	t.Helper()
	return groupedViolations(t, rows, 3)
}

// groupedViolations is testViolations with perKey r tuples to a key: a
// key's tuples witness perKey(perKey-1)/2 pair violations of phi, each
// tuple perKey-1 of them.
func groupedViolations(t testing.TB, rows, perKey int) []detect.Violation {
	t.Helper()
	set, err := cind.ParseConstraints(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	db := cind.NewDatabase(set.Schema())
	var sb strings.Builder
	sb.WriteString("a,b,c\n")
	keys := rows/perKey + 1
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "key-%d,val-%d,c%d\n", i%keys, i, i)
	}
	if err := cind.LoadCSV(db, "r", strings.NewReader(sb.String()), true); err != nil {
		t.Fatal(err)
	}
	chk, err := cind.NewChecker(db, set, cind.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var out []detect.Violation
	for v, verr := range chk.Violations(context.Background()) {
		if verr != nil {
			t.Fatal(verr)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		t.Fatal("fixture produced no violations")
	}
	return out
}

// closer is the end of a Writer of either instantiation.
type closer interface {
	Close() error
	CloseError(msg string) error
	Count() int64
}

// testWriter is an open Writer of either instantiation, fed engine
// violations.
type testWriter struct {
	send func(detect.Violation) bool
	closer
}

// writerKind is one Writer instantiation: the engine writer takes engine
// violations as they are, the relay writer their binary records.
type writerKind struct {
	name string
	open func(out io.Writer, enc Encoding) testWriter
}

var (
	engineWriter = writerKind{"engine", func(out io.Writer, enc Encoding) testWriter {
		w := NewWriter(out, nil, enc, Options{})
		return testWriter{w.Send, w}
	}}
	relayWriter = writerKind{"relay", func(out io.Writer, enc Encoding) testWriter {
		w := NewRelayWriter(out, nil, enc)
		// Each violation becomes a one-violation batch of one source
		// stream, read back through the record view.
		e, src := newEncoder(), &dict{}
		return testWriter{func(v detect.Violation) bool {
			_, recs, err := src.parse(e.appendViolation(nil, &v), nil, nil, nil)
			if err != nil {
				panic(err)
			}
			return w.Send(recs[0])
		}, w}
	}}
	writerKinds = []writerKind{engineWriter, relayWriter}
)

// encodeStream drives a Writer of the given kind over the violations and
// returns the raw stream bytes.
func encodeStream(t testing.TB, kind writerKind, vs []detect.Violation, enc Encoding, endErr string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := kind.open(&buf, enc)
	for _, v := range vs {
		if !w.send(v) {
			t.Fatal("Send reported failure on a healthy buffer")
		}
	}
	var err error
	if endErr != "" {
		err = w.CloseError(endErr)
	} else {
		err = w.Close()
	}
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := w.Count(); got != int64(len(vs)) {
		t.Fatalf("Count = %d, want %d", got, len(vs))
	}
	return buf.Bytes()
}

func wantWire(vs []detect.Violation) []Violation {
	out := make([]Violation, len(vs))
	for i, v := range vs {
		out[i] = Convert(v)
	}
	return out
}

func assertSameViolations(t testing.TB, label string, got, want []Violation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d violations, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: violation %d = %s, want %s", label, i, g, w)
		}
	}
}

var allEncodings = []Encoding{NDJSON, JSONArray, Binary}

// TestRoundTrip: for every encoding and both writers, a written stream
// decodes back to the identical violations, in order, with the trailer
// count intact — the core differential property the server suite then
// pins over HTTP.
func TestRoundTrip(t *testing.T) {
	vs := testViolations(t, 200)
	want := wantWire(vs)
	for _, enc := range allEncodings {
		t.Run(enc.String(), func(t *testing.T) {
			for _, kind := range writerKinds {
				t.Run(kind.name, func(t *testing.T) {
					raw := encodeStream(t, kind, vs, enc, "")
					got, err := DecodeAll(bytes.NewReader(raw), enc)
					if err != nil {
						t.Fatalf("decode: %v", err)
					}
					assertSameViolations(t, enc.String(), got, want)

					d := NewDecoder(bytes.NewReader(raw), enc)
					n := 0
					for {
						_, err := d.Next()
						if err == io.EOF {
							break
						}
						if err != nil {
							t.Fatalf("Next: %v", err)
						}
						n++
					}
					if d.Count() != int64(n) || n != len(want) {
						t.Fatalf("trailer count %d, decoded %d, want %d", d.Count(), n, len(want))
					}
				})
			}
		})
	}
}

// TestRoundTripEmpty: a violation-free stream still carries its terminal
// record in every encoding, from both writers — an empty stream and a
// dead connection must never look alike.
func TestRoundTripEmpty(t *testing.T) {
	for _, enc := range allEncodings {
		t.Run(enc.String(), func(t *testing.T) {
			for _, kind := range writerKinds {
				t.Run(kind.name, func(t *testing.T) {
					raw := encodeStream(t, kind, nil, enc, "")
					if len(raw) == 0 {
						t.Fatal("empty stream wrote no terminal record")
					}
					got, err := DecodeAll(bytes.NewReader(raw), enc)
					if err != nil {
						t.Fatalf("decode: %v", err)
					}
					if len(got) != 0 {
						t.Fatalf("decoded %d violations from an empty stream", len(got))
					}
				})
			}
		})
	}
}

// TestErrorTerminal: a CloseError stream yields every violation sent, then
// *RemoteError with the message — in every encoding, from both writers.
func TestErrorTerminal(t *testing.T) {
	vs := testViolations(t, 30)
	for _, enc := range allEncodings {
		t.Run(enc.String(), func(t *testing.T) {
			for _, kind := range writerKinds {
				t.Run(kind.name, func(t *testing.T) {
					raw := encodeStream(t, kind, vs, enc, "drain: context canceled")
					got, err := DecodeAll(bytes.NewReader(raw), enc)
					var re *RemoteError
					if !errors.As(err, &re) {
						t.Fatalf("decode error = %v, want *RemoteError", err)
					}
					if re.Msg != "drain: context canceled" {
						t.Fatalf("remote error %q", re.Msg)
					}
					assertSameViolations(t, enc.String(), got, wantWire(vs))
				})
			}
		})
	}
}

// TestRelayMatchesEngine pins the relay promise: the relay writer fed the
// binary records of engine violations writes what the engine writer fed
// the violations writes — the same NDJSON and JSON bytes, and binary with
// the same 'B' bodies, byte for byte, and the same terminal frame (batch
// boundaries follow flush timing, which the Decoder is indifferent to).
func TestRelayMatchesEngine(t *testing.T) {
	vs := testViolations(t, 200)
	for _, enc := range allEncodings {
		for _, endErr := range []string{"", "shard 1 went away"} {
			engine := encodeStream(t, engineWriter, vs, enc, endErr)
			relay := encodeStream(t, relayWriter, vs, enc, endErr)
			if enc == Binary {
				relay, engine = splitFrames(t, relay), splitFrames(t, engine)
			}
			if !bytes.Equal(relay, engine) {
				t.Fatalf("%s (end %q): relay bytes diverge:\nrelay  %q\nengine %q", enc, endErr, relay, engine)
			}
		}
	}
}

// splitFrames concatenates a binary stream's 'B' bodies and appends its
// terminal payload: the stream's content with the batch boundaries
// removed.
func splitFrames(t testing.TB, raw []byte) []byte {
	t.Helper()
	var bodies []byte
	for len(raw) > 0 {
		if len(raw) < 8 {
			t.Fatalf("torn frame header: %q", raw)
		}
		n := int(binary.LittleEndian.Uint32(raw[:4]))
		payload := raw[8 : 8+n]
		raw = raw[8+n:]
		if payload[0] != 'B' {
			return append(bodies, payload...)
		}
		bodies = append(bodies, payload[1:]...)
	}
	t.Fatal("binary stream without a terminal frame")
	return nil
}

// TestDecodedWitnessesShareTuples: in a decoded dense stream every
// violation that cites a tuple holds the same []string for it, so a tuple
// costs one decode and one slice however many violations it witnesses.
func TestDecodedWitnessesShareTuples(t *testing.T) {
	vs := groupedViolations(t, 300, 21)
	raw := encodeStream(t, engineWriter, vs, Binary, "")
	got, err := DecodeAll(bytes.NewReader(raw), Binary)
	if err != nil {
		t.Fatal(err)
	}
	assertSameViolations(t, "dense", got, wantWire(vs))
	arrays := map[string]*string{}
	cites := 0
	for _, v := range got {
		for _, tup := range v.Witness {
			key := strings.Join(tup, "\x00")
			p := unsafe.SliceData(tup)
			if q, ok := arrays[key]; ok && q != p {
				t.Fatalf("tuple %q decoded into two backing arrays", tup)
			}
			arrays[key] = p
			cites++
		}
	}
	if cites < 10*len(arrays) {
		t.Fatalf("%d citations of %d tuples: the fixture does not repeat witnesses", cites, len(arrays))
	}
}

// TestTruncationDetected: every proper prefix of a valid stream must fail
// to decode cleanly — io.EOF may only come from the terminal record. The
// final bytes of the NDJSON/JSON forms are a cosmetic trailing newline, so
// those cuts stop one byte earlier.
func TestTruncationDetected(t *testing.T) {
	vs := testViolations(t, 12)
	for _, enc := range allEncodings {
		t.Run(enc.String(), func(t *testing.T) {
			raw := encodeStream(t, engineWriter, vs, enc, "")
			end := len(raw)
			if enc != Binary {
				end-- // without the trailing newline the stream is still complete
			}
			for cut := 0; cut < end; cut++ {
				_, err := DecodeAll(bytes.NewReader(raw[:cut]), enc)
				if err == nil {
					t.Fatalf("prefix of %d/%d bytes decoded as a complete stream", cut, len(raw))
				}
			}
			// Cutting nothing decodes cleanly.
			if _, err := DecodeAll(bytes.NewReader(raw), enc); err != nil {
				t.Fatalf("full stream: %v", err)
			}
		})
	}
}

// TestBinaryCorruption: flipping any byte of a binary stream must never
// yield a clean decode with different content — CRC framing turns
// corruption into an error.
func TestBinaryCorruption(t *testing.T) {
	vs := testViolations(t, 12)
	raw := encodeStream(t, engineWriter, vs, Binary, "")
	want, err := DecodeAll(bytes.NewReader(raw), Binary)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		mut := bytes.Clone(raw)
		mut[i] ^= 0x40
		got, err := DecodeAll(bytes.NewReader(mut), Binary)
		if err == nil {
			assertSameViolations(t, fmt.Sprintf("byte %d flipped yet decoded clean", i), got, want)
		}
	}
}

// TestWALFrameCompatibility: the binary stream is a valid WAL frame
// sequence — wal.Decode walks it intact, and a mid-frame cut shows up as
// a shortened validEnd, exactly the torn-tail discipline the WAL pins.
func TestWALFrameCompatibility(t *testing.T) {
	vs := testViolations(t, 50)
	raw := encodeStream(t, engineWriter, vs, Binary, "")
	records, validEnd := wal.Decode(raw)
	if validEnd != int64(len(raw)) {
		t.Fatalf("wal.Decode validEnd = %d, want %d", validEnd, len(raw))
	}
	if len(records) < 2 {
		t.Fatalf("stream of %d violations decoded to %d WAL records", len(vs), len(records))
	}
	for i, rec := range records {
		tag := rec.Payload[0]
		last := i == len(records)-1
		if last && tag != 'Z' {
			t.Fatalf("final frame tag %q, want Z", tag)
		}
		if !last && tag != 'B' {
			t.Fatalf("frame %d tag %q, want B", i, tag)
		}
	}
	if _, validEnd := wal.Decode(raw[:len(raw)-3]); validEnd >= int64(len(raw)-3) {
		t.Fatalf("torn tail not detected: validEnd %d of %d", validEnd, len(raw)-3)
	}
}

// TestNegotiate pins the Accept mapping, including the defaulting rules
// that keep pre-negotiation clients on NDJSON.
func TestNegotiate(t *testing.T) {
	cases := []struct {
		accept string
		want   Encoding
	}{
		{"", NDJSON},
		{"*/*", NDJSON},
		{"text/html", NDJSON},
		{"application/x-ndjson", NDJSON},
		{"application/json", JSONArray},
		{"application/x-cind-frames", Binary},
		{"Application/JSON", JSONArray},
		{" application/json ; q=0.9", JSONArray},
		{"text/html, application/x-cind-frames", Binary},
		{"application/json, application/x-cind-frames", JSONArray},
		{"application/x-cind-frames;q=0.2, application/json", Binary},
	}
	for _, c := range cases {
		if got := Negotiate(c.accept); got != c.want {
			t.Errorf("Negotiate(%q) = %v, want %v", c.accept, got, c.want)
		}
	}
}

// TestParseEncoding round-trips the flag spellings and rejects junk.
func TestParseEncoding(t *testing.T) {
	for _, enc := range allEncodings {
		got, err := ParseEncoding(enc.String())
		if err != nil || got != enc {
			t.Fatalf("ParseEncoding(%q) = %v, %v", enc.String(), got, err)
		}
	}
	if _, err := ParseEncoding("protobuf"); err == nil {
		t.Fatal("ParseEncoding accepted junk")
	}
}

// timedWriter records each Write's instant and the bytes written, for
// flush-policy assertions.
type timedWriter struct {
	mu     sync.Mutex
	writes []time.Time
	buf    bytes.Buffer
}

func (w *timedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes = append(w.writes, time.Now())
	return w.buf.Write(p)
}

// await waits up to a second for the n-th write and returns its instant
// and the bytes written so far.
func (w *timedWriter) await(t *testing.T, n int) (time.Time, string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		w.mu.Lock()
		if len(w.writes) >= n {
			defer w.mu.Unlock()
			return w.writes[n-1], w.buf.String()
		}
		w.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("write %d never reached the sink while the producer sat idle", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlushPolicy pins the flush promises at the production constants,
// for both writers: a violation sent right after the stream opens reaches
// the sink with no further Send or Close (the eager first flush), and a
// second one sent right after it, far below the size threshold, reaches
// the sink by the deadline flush while the producer sits idle. The
// deadline check allows scheduling slack past flushInterval.
func TestFlushPolicy(t *testing.T) {
	vs := testViolations(t, 10)
	line := func(v detect.Violation) string {
		b, _ := json.Marshal(Convert(v))
		return string(b) + "\n"
	}
	for _, kind := range writerKinds {
		t.Run(kind.name, func(t *testing.T) {
			out := &timedWriter{}
			w := kind.open(out, NDJSON)
			w.send(vs[0])
			if _, got := out.await(t, 1); got != line(vs[0]) {
				t.Fatalf("first flush wrote %q, want the first violation", got)
			}
			sent := time.Now()
			w.send(vs[1])
			at, got := out.await(t, 2)
			if got != line(vs[0])+line(vs[1]) {
				t.Fatalf("deadline flush left %q, want both violations", got)
			}
			if d := at.Sub(sent); d > flushInterval+500*time.Millisecond {
				t.Fatalf("second violation reached the sink %v after Send, want about %v", d, flushInterval)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			all, err := DecodeAll(&out.buf, NDJSON)
			if err != nil {
				t.Fatal(err)
			}
			assertSameViolations(t, "after Close", all, wantWire(vs[:2]))
		})
	}
}

// failAfterWriter fails every Write after the first n bytes.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written >= w.n {
		return 0, errors.New("broken pipe")
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriterFailure: once the sink fails, a later Send reports it — the
// encoder writes asynchronously, so not necessarily the Send whose
// violation met the failure — and Close surfaces the write error, for
// both writers.
func TestWriterFailure(t *testing.T) {
	vs := testViolations(t, 50)
	for _, kind := range writerKinds {
		t.Run(kind.name, func(t *testing.T) {
			w := kind.open(&failAfterWriter{n: 1}, NDJSON)
			sawFalse := false
			deadline := time.Now().Add(5 * time.Second)
			for !sawFalse && time.Now().Before(deadline) {
				for _, v := range vs {
					if !w.send(v) {
						sawFalse = true
						break
					}
				}
				time.Sleep(time.Millisecond)
			}
			if !sawFalse {
				t.Fatal("Send never reported the dead sink")
			}
			if err := w.Close(); err == nil {
				t.Fatal("Close returned nil after write failures")
			}
		})
	}
}

// TestSendAfterCloseRefused: a closed stream refuses further violations
// and does not count them, for both writers.
func TestSendAfterCloseRefused(t *testing.T) {
	vs := testViolations(t, 5)
	for _, kind := range writerKinds {
		t.Run(kind.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := kind.open(&buf, NDJSON)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if w.send(vs[0]) {
				t.Fatal("Send after Close = true")
			}
			if w.Count() != 0 {
				t.Fatalf("Count after refused Send = %d", w.Count())
			}
		})
	}
}

// TestDecodeAllRejectsGarbage: byte soup is an error in every encoding,
// never a clean empty stream.
func TestDecodeAllRejectsGarbage(t *testing.T) {
	for _, enc := range allEncodings {
		if _, err := DecodeAll(strings.NewReader("not a violation stream"), enc); err == nil {
			t.Fatalf("%v decoded garbage cleanly", enc)
		}
	}
}

// TestTrailerCountMismatch: a trailer whose count disagrees with the
// violations on the wire is corruption, not a clean end.
func TestTrailerCountMismatch(t *testing.T) {
	vs := testViolations(t, 5)
	raw := encodeStream(t, engineWriter, vs, NDJSON, "")
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	lines[len(lines)-1] = []byte(`{"done":true,"count":999}`)
	_, err := DecodeAll(bytes.NewReader(bytes.Join(lines, []byte("\n"))), NDJSON)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("mismatched trailer count decoded cleanly: %v", err)
	}
}

// TestAppendJSONMatchesEncodingJSON pins appendJSON to encoding/json's
// bytes — the NDJSON and JSON encodings promise exactly what json.Marshal
// writes — over every single byte, HTML and JSONP escapes, multi-byte and
// invalid UTF-8, nil and empty witnesses, and random strings.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	vs := jsonViolations()
	for i := range vs {
		want, err := json.Marshal(vs[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSON(nil, &vs[i]); !bytes.Equal(got, want) {
			t.Fatalf("appendJSON(%+v)\n got  %s\n want %s", vs[i], got, want)
		}
	}
}

// TestDecoderRecyclesReadBuffer decodes a stream in each encoding, then a
// second one through the read buffer the first returned to the pool: the
// first stream's violations must be unchanged, and a decode must no
// longer allocate a 64 KiB buffer of its own.
func TestDecoderRecyclesReadBuffer(t *testing.T) {
	first, second := testViolations(t, 60), testViolations(t, 90)
	for _, enc := range allEncodings {
		rawA := encodeStream(t, engineWriter, first, enc, "")
		rawB := encodeStream(t, engineWriter, second, enc, "")
		gotA, err := DecodeAll(bytes.NewReader(rawA), enc)
		if err != nil {
			t.Fatal(err)
		}
		snapshot, _ := json.Marshal(gotA)
		gotB, err := DecodeAll(bytes.NewReader(rawB), enc)
		if err != nil {
			t.Fatal(err)
		}
		assertSameViolations(t, enc.String()+": second stream", gotB, wantWire(second))
		if after, _ := json.Marshal(gotA); !bytes.Equal(after, snapshot) {
			t.Fatalf("%v: decoding a second stream changed the first one's violations", enc)
		}

		// A decoder with a buffer of its own allocates at least 64 KiB per
		// stream; a recycled one allocates less than that on average, even
		// where the race detector makes the pool drop some buffers.
		rawC := encodeStream(t, engineWriter, first[:1], enc, "")
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := DecodeAll(bytes.NewReader(rawC), enc); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if perDecode := (after.TotalAlloc - before.TotalAlloc) / runs; perDecode >= 64<<10 {
			t.Fatalf("%v: a one-violation decode allocates %d bytes; the read buffer is not recycled", enc, perDecode)
		}
	}
}
