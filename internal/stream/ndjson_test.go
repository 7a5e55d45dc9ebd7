package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"testing"
)

// jsonStrings are the strings the JSON tests encode: every single byte
// between two letters, HTML and JSONP escapes, multi-byte and invalid
// UTF-8, and random byte strings.
func jsonStrings() []string {
	strs := []string{"", "plain", "a\"b\\c", "<&>", "  ", "é ü 中文 🙂", "\xff", "a\xc3", "\xed\xa0\x80", "\x7f"}
	for b := 0; b < 256; b++ {
		strs = append(strs, string([]byte{'x', byte(b), 'y'}))
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.IntN(12))
		for j := range b {
			b[j] = byte(rng.IntN(256))
		}
		strs = append(strs, string(b))
	}
	return strs
}

// jsonViolations are wire violations over jsonStrings, plus negative rows
// and nil and empty witnesses.
func jsonViolations() []Violation {
	strs := jsonStrings()
	vs := []Violation{
		{Kind: "cfd", Constraint: "phi", Relation: "r", Row: -3},
		{Kind: "cind", Witness: [][]string{}},
		{Kind: "cind", Witness: [][]string{nil, {}}},
	}
	for i, s := range strs {
		vs = append(vs, Violation{Kind: s, Constraint: strs[(i+1)%len(strs)], Relation: s, Row: i,
			Witness: [][]string{{s, strs[(i+7)%len(strs)]}, {strs[(i+3)%len(strs)]}}})
	}
	return vs
}

// assertLineMatchesJSON fails unless parseLine decodes line exactly as
// encoding/json does — the same members or a rejection by both — and,
// where the hand-written parser accepts line, unless encoding/json accepts
// it with the same members.
func assertLineMatchesJSON(t *testing.T, line []byte) {
	t.Helper()
	var want ndjsonLine
	werr := json.Unmarshal(line, &want)
	var r batchReader
	var got ndjsonLine
	if r.jsonLine(line, &got) {
		if werr != nil {
			t.Fatalf("hand parser accepted %q, which encoding/json rejects: %v", line, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hand parser decoded %q to %+v, encoding/json to %+v", line, got, want)
		}
	}
	gerr := r.parseLine(line, &got)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("parseLine(%q) = %v, encoding/json: %v", line, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("parseLine decoded %q to %+v, encoding/json to %+v", line, got, want)
	}
}

// TestHandParserTakesTheWritersGrammar: every line the Writer emits —
// appendJSON's violations over awkward strings, the trailer and the error
// line — takes the hand-written path and decodes as encoding/json does.
func TestHandParserTakesTheWritersGrammar(t *testing.T) {
	lines := [][]byte{[]byte(`{"done":true,"count":0}`), []byte(`{"done":true,"count":9223372036854775807}`)}
	for _, s := range jsonStrings()[:300] {
		msg, _ := json.Marshal(s)
		lines = append(lines, append(append([]byte(`{"error":`), msg...), '}'))
	}
	for _, v := range jsonViolations() {
		lines = append(lines, appendJSON(nil, &v))
	}
	var r batchReader
	for _, line := range lines {
		var l ndjsonLine
		if !r.jsonLine(line, &l) {
			t.Fatalf("the hand parser declined the Writer's line %q", line)
		}
		assertLineMatchesJSON(t, line)
	}
}

// ndjsonLineSeeds are FuzzNDJSONLine's seeds: the NDJSON form of every
// FuzzStreamDecode seed stream — its violations, and its trailer or error
// line — plus lines off the Writer's grammar that encoding/json accepts
// or rejects.
func ndjsonLineSeeds() [][]byte {
	var seeds [][]byte
	for _, sd := range seedStreams() {
		vs, err := DecodeAll(bytes.NewReader(sd.data), Binary)
		for i := range vs {
			seeds = append(seeds, appendJSON(nil, &vs[i]))
		}
		var re *RemoteError
		switch {
		case err == nil:
			seeds = append(seeds, []byte(`{"done":true,"count":1}`))
		case errors.As(err, &re):
			msg, _ := json.Marshal(re.Msg)
			seeds = append(seeds, append(append([]byte(`{"error":`), msg...), '}'))
		}
	}
	for _, s := range []string{
		`{"kind":"cfd","constraint":"phi","relation":"r","row":0,"witness":[["a","b"],null,[]]}`,
		`{"kind":"cfd","constraint":"phi","relation":"r","row":1.5,"witness":null}`,
		`{"kind":"cfd","constraint":"phi","relation":"r","row":1e3,"witness":null}`,
		`{"kind":"cfd","constraint":"phi","relation":"r","row":-0,"witness":null}`,
		`{"kind":"cfd","constraint":"phi","relation":"r","row":01,"witness":null}`,
		`{"kind":"cfd","constraint":"phi","relation":"r","row":99999999999999999999,"witness":null}`,
		`{"kind":"cfd","constraint":"😀","relation":"\ud800","row":0,"witness":[["\/\b\f\n\r\t"]]}`,
		`{"KIND":"cfd","Row":2}`,
		`{"row":3,"kind":"cind"}`,
		`{ "kind" : "cfd" }`,
		`{"kind":"cfd","extra":{"a":[1,2]},"witness":[["x"]]}`,
		`{"kind":"cfd","witness":[[1]]}`,
		`{"done":false}`,
		`{"done":true}`,
		`{"done":true,"count":-1}`,
		`{"error":null}`,
		`{"kind":"cfd"}}`,
		`{"kind":"cfd"`,
		`[]`,
		`null`,
		"{\"kind\":\"a\x01b\"}",
		"{\"kind\":\"a\xffb\"}",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

func TestNDJSONLineSeedsMatchJSON(t *testing.T) {
	for _, line := range ndjsonLineSeeds() {
		assertLineMatchesJSON(t, line)
	}
}

// FuzzNDJSONLine is the NDJSON parser's differential against
// encoding/json: over arbitrary lines, parseLine accepts exactly what
// encoding/json accepts and decodes it to the same members, and a line
// the hand-written parser takes is one encoding/json decodes identically.
func FuzzNDJSONLine(f *testing.F) {
	for _, seed := range ndjsonLineSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		assertLineMatchesJSON(t, line)
	})
}

// TestBytesAfterTerminalRecord: whitespace may follow an NDJSON or JSON
// stream's terminal record and nothing may follow a binary one; any other
// byte there fails the stream, whether it ended cleanly or in an error.
func TestBytesAfterTerminalRecord(t *testing.T) {
	vs := testViolations(t, 12)
	for _, enc := range allEncodings {
		for _, endErr := range []string{"", "cancelled"} {
			raw := encodeStream(t, engineWriter, vs, enc, endErr)
			_, base := DecodeAll(bytes.NewReader(raw), enc)
			if enc != Binary {
				if _, err := DecodeAll(bytes.NewReader(append(bytes.Clone(raw), " \r\n\t\n"...)), enc); fmtErr(err) != fmtErr(base) {
					t.Fatalf("%v, end %q: trailing whitespace changed the result from %v to %v", enc, endErr, base, err)
				}
			}
			for _, tail := range []string{"x", "\n{}", "\x00"} {
				if enc == Binary && tail == "\n{}" {
					tail = "\n"
				}
				_, err := DecodeAll(bytes.NewReader(append(bytes.Clone(raw), tail...)), enc)
				if err == nil || fmtErr(err) == fmtErr(base) {
					t.Fatalf("%v, end %q: %q after the terminal record decoded as %v", enc, endErr, tail, err)
				}
			}
		}
	}
}

func fmtErr(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestDecoderDrainsHTTPBody serves a stream in each encoding over HTTP and
// reads it twice through one client, each time only to the trailer
// through the Decoder: the decoder must have read the body to its end, so
// the second request reuses the first one's connection.
func TestDecoderDrainsHTTPBody(t *testing.T) {
	vs := testViolations(t, 40)
	for _, enc := range allEncodings {
		raw := encodeStream(t, engineWriter, vs, enc, "")
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", enc.ContentType())
			// Flush the stream before returning, as the server does, so
			// the body's end arrives after the trailer.
			w.Write(raw)
			w.(http.Flusher).Flush()
		}))
		client := srv.Client()
		for i := range 2 {
			var reused bool
			trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
			req, err := http.NewRequestWithContext(httptrace.WithClientTrace(t.Context(), trace), http.MethodGet, srv.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			d := NewDecoder(resp.Body, enc)
			n := 0
			for {
				_, err := d.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%v: %v", enc, err)
				}
				n++
			}
			resp.Body.Close()
			if n != len(vs) {
				t.Fatalf("%v: decoded %d of %d", enc, n, len(vs))
			}
			if i == 1 && !reused {
				t.Fatalf("%v: the second request dialed a new connection; the first body was not drained", enc)
			}
		}
		srv.Close()
	}
}
