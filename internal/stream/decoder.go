package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"cind/internal/wal"
)

// ErrTruncated reports a stream that ended without its terminal record —
// the bytes received are valid violations, but the server never said the
// stream was complete (connection cut, proxy timeout, crashed server).
var ErrTruncated = errors.New("stream: truncated violation stream (no end-of-stream trailer)")

// RemoteError is the server's own terminal error record: the stream ended
// because the server cancelled it (client-observed Drain, engine
// cancellation), and everything before it was delivered intact.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "stream: server reported: " + e.Msg }

// Decoder reads one violations stream in any negotiated encoding and
// yields violations in stream order. Next returns io.EOF exactly when the
// stream carried its clean end-of-stream trailer and the trailer count
// matches the violations received; a server-side cancellation surfaces as
// *RemoteError, a cut connection as ErrTruncated, and corruption (binary
// CRC mismatch, malformed JSON) as a descriptive error. The terminal
// result is sticky.
//
// After the terminal record — the trailer or the server's error record —
// the decoder reads its source to the end before it reports the result,
// so an HTTP response body is drained and its connection can be reused.
// Only whitespace may follow an NDJSON or JSON terminal record, and
// nothing a binary one: any other byte there is an error.
type Decoder struct {
	enc Encoding
	br  *bufio.Reader

	queue []Violation
	qpos  int
	seen  int64
	count int64
	fin   bool
	ferr  error

	jsonRead  bool
	jsonFinal error

	// Decode scratch, reused across frames and lines: the payload buffer,
	// an NDJSON line longer than the read buffer and the decoded line, and
	// the batch reader with its intern cache and witness slabs.
	payload bytes.Buffer
	long    []byte
	line    ndjsonLine
	batch   batchReader

	// The binary stream's declaration tables.
	dict dict

	// The record view's queue (NextRecord).
	recs []Record
	rpos int
}

// readerPool recycles decoders' 64 KiB read buffers: a Decoder takes one
// when it is made and returns it with its terminal result, so a client
// that decodes many short streams — a router decodes one per shard per
// scan — does not allocate a buffer per stream.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// NewDecoder wraps r, which must carry a stream in encoding enc (match it
// to the response Content-Type).
func NewDecoder(r io.Reader, enc Encoding) *Decoder {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return &Decoder{enc: enc, br: br}
}

// finish makes err the decoder's sticky terminal result, drops its
// declaration tables and returns its pooled buffers; the violations and
// records it handed out stay valid, as none of them aliases a buffer or
// the tables.
func (d *Decoder) finish(err error) {
	d.fin, d.ferr = true, err
	d.dict = dict{}
	d.batch.release()
	d.br.Reset(nil)
	readerPool.Put(d.br)
	d.br = nil
}

// Next returns the next violation, or the stream's terminal result.
func (d *Decoder) Next() (Violation, error) {
	for {
		if d.qpos < len(d.queue) {
			v := d.queue[d.qpos]
			d.qpos++
			return v, nil
		}
		if d.fin {
			return Violation{}, d.ferr
		}
		d.queue = d.queue[:0]
		d.qpos = 0
		var err error
		switch d.enc {
		case Binary:
			err = d.fillBinary(false)
		case JSONArray:
			err = d.fillJSON()
		default:
			err = d.fillNDJSON()
		}
		if err != nil {
			d.finish(err)
		}
	}
}

// NextRecord is Next without the decode, for a relay: it returns the next
// violation as an undecoded Record, validated exactly as Next validates
// it — frame CRC, every length bounds-checked, every ref checked against
// the declarations before it, a frame handed out only once all of it
// parsed — or the stream's terminal result, the same one Next would
// return. Each frame's records share a copy of the frame of their own and
// a view of the stream's tables as of that frame, so a Record stays valid
// for as long as the caller keeps it, on any goroutine.
// The record view needs the Binary encoding; a Decoder serves either
// Next or NextRecord, not both.
func (d *Decoder) NextRecord() (Record, error) {
	for {
		if d.rpos < len(d.recs) {
			r := d.recs[d.rpos]
			d.rpos++
			return r, nil
		}
		if d.fin {
			return Record{}, d.ferr
		}
		d.recs, d.rpos = d.recs[:0], 0
		var err error
		if d.enc == Binary {
			err = d.fillBinary(true)
		} else {
			err = fmt.Errorf("stream: records need the binary encoding, not %s", d.enc)
		}
		if err != nil {
			d.finish(err)
		}
	}
}

// Count reports the trailer's violation count; valid after Next or
// NextRecord returned io.EOF.
func (d *Decoder) Count() int64 { return d.count }

func (d *Decoder) checkTrailer() error {
	if d.count != d.seen {
		return fmt.Errorf("stream: trailer count %d != %d violations received", d.count, d.seen)
	}
	return io.EOF
}

// end reads the source to its end after a terminal record whose result is
// res, and returns res — or an error for a byte the encoding does not
// allow there.
func (d *Decoder) end(res error) error {
	for {
		b, err := d.br.ReadByte()
		if err == io.EOF {
			return res
		}
		if err != nil {
			return err
		}
		if d.enc == Binary || !isSpace(b) {
			return fmt.Errorf("stream: byte 0x%02x after the stream's terminal record", b)
		}
	}
}

// isSpace reports whether b is JSON whitespace.
func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// fillNDJSON consumes one line: a violation, the error line, or the
// trailer.
func (d *Decoder) fillNDJSON() error {
	line, rerr := d.br.ReadSlice('\n')
	if rerr == bufio.ErrBufferFull {
		d.long = append(d.long[:0], line...)
		for rerr == bufio.ErrBufferFull {
			line, rerr = d.br.ReadSlice('\n')
			d.long = append(d.long, line...)
		}
		line = d.long
	}
	trim := bytes.TrimSpace(line)
	if len(trim) == 0 {
		if rerr != nil {
			return ErrTruncated // EOF before any terminal line
		}
		return nil // blank line between records: skip
	}
	l := &d.line
	if err := d.batch.parseLine(trim, l); err != nil {
		return fmt.Errorf("stream: bad ndjson line: %v", err)
	}
	switch {
	case l.Error != nil:
		return d.end(&RemoteError{Msg: *l.Error})
	case l.Done != nil && *l.Done:
		if l.Count != nil {
			d.count = *l.Count
		}
		return d.end(d.checkTrailer())
	case l.Kind == "":
		return fmt.Errorf("stream: line %q is neither a violation, an error, nor the trailer", trim)
	default:
		d.queue = append(d.queue, l.Violation)
		d.seen++
		return nil
	}
}

// fillJSON reads the whole body once; the terminal result is computed up
// front and handed out after the queue drains.
func (d *Decoder) fillJSON() error {
	if d.jsonRead {
		return d.jsonFinal
	}
	d.jsonRead = true
	data, err := io.ReadAll(d.br)
	if err != nil {
		return err
	}
	var body struct {
		Violations []Violation `json:"violations"`
		Done       bool        `json:"done"`
		Count      *int64      `json:"count"`
		Error      *string     `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		// A cut connection leaves an unterminated document.
		return fmt.Errorf("%w (bad json body: %v)", ErrTruncated, err)
	}
	d.queue = append(d.queue, body.Violations...)
	d.seen = int64(len(body.Violations))
	switch {
	case body.Error != nil:
		d.jsonFinal = &RemoteError{Msg: *body.Error}
	case !body.Done:
		d.jsonFinal = ErrTruncated
	default:
		if body.Count != nil {
			d.count = *body.Count
		}
		d.jsonFinal = d.checkTrailer()
	}
	return nil
}

// fillBinary consumes one frame: a 'B' batch of declarations and
// violations, the 'E' error record, or the 'Z' trailer. A batch's
// violations are queued as Records or, decoded, as Violations; either way
// a batch with any malformed entry is dropped whole.
func (d *Decoder) fillBinary(records bool) error {
	var hdr [8]byte
	if _, err := io.ReadFull(d.br, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ErrTruncated
		}
		return err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 {
		return errors.New("stream: empty frame (missing tag byte)")
	}
	if int64(n) > wal.MaxRecord {
		return fmt.Errorf("stream: frame of %d bytes exceeds the %d-byte record cap", n, int64(wal.MaxRecord))
	}
	// Copy rather than pre-allocate n bytes: a corrupt length field only
	// ever costs as much memory as the stream actually carries. The buffer
	// is a reused field, so steady-state frames cost no allocation.
	d.payload.Reset()
	if _, err := io.CopyN(&d.payload, d.br, int64(n)); err != nil {
		return ErrTruncated
	}
	payload := d.payload.Bytes()
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return errors.New("stream: frame CRC mismatch")
	}
	switch payload[0] {
	case 'B':
		body := payload[1:]
		r := &d.batch
		if records {
			body = bytes.Clone(body) // the payload buffer is reused next frame
			r = nil
		}
		nq, nr := len(d.queue), len(d.recs)
		var err error
		if d.queue, d.recs, err = d.dict.parse(body, r, d.queue, d.recs); err != nil {
			d.queue, d.recs = d.queue[:nq], d.recs[:nr]
			return err
		}
		d.seen += int64(len(d.queue) - nq + len(d.recs) - nr)
		return nil
	case 'E':
		return d.end(&RemoteError{Msg: string(payload[1:])})
	case 'Z':
		c, k := binary.Uvarint(payload[1:])
		if k <= 0 || k != len(payload)-1 {
			return errors.New("stream: bad trailer frame")
		}
		d.count = int64(c)
		return d.end(d.checkTrailer())
	default:
		return fmt.Errorf("stream: unknown frame tag 0x%02x", payload[0])
	}
}

// DecodeAll drains a complete stream, returning its violations. The error
// is nil only for a clean, trailer-terminated stream.
func DecodeAll(r io.Reader, enc Encoding) ([]Violation, error) {
	d := NewDecoder(r, enc)
	var out []Violation
	for {
		v, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
}
