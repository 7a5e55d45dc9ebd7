package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"cind/internal/detect"
	"cind/internal/wal"
)

// Flusher is the subset of http.Flusher the Writer drives; nil disables
// flushing (plain buffers in tests and benchmarks).
type Flusher interface{ Flush() }

// Options has no fields: the flush policy is the constants below. The
// type remains only because cmd/cindbench passes Options{} to NewWriter.
type Options struct{}

// The flush policy: the first violation is flushed eagerly, later bytes
// at flushBytes or flushInterval after the first of them was buffered,
// whichever comes first. Send blocks while maxPending violations await the
// encoder.
const (
	flushBytes    = 32 << 10
	flushInterval = 50 * time.Millisecond
	maxPending    = 1024
)

// maxPooledBuf caps the encode buffers returned to the pool, so one stream
// with a pathological single violation cannot pin a huge buffer forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Writer streams violations of type V to out in one negotiated encoding,
// moving all conversion, encoding and flushing off the caller's loop. Send
// appends to a pending slice under the writer's mutex and wakes the
// per-stream encoder goroutine when that slice goes from empty to
// non-empty; the goroutine swaps the whole slice out, encodes it, flushes
// the first violation eagerly (first-violation latency stays one detection
// group) and later bytes at 32KiB or 50ms, whichever first, and writes the
// encoding's terminal record when the stream closes. The encoder sees
// every violation as soon as it is sent, so both flush promises hold
// however slowly the caller produces.
//
// The two instantiations differ only in how a value becomes its JSON form
// and its binary body: NewWriter's takes engine violations, NewRelayWriter's
// undecoded binary records. Fed the same violations, they write the same
// bytes in every encoding.
//
// Send and Close/CloseError must be called from one goroutine (the
// iterator or merge loop). Close and CloseError are idempotent; the first
// call wins.
type Writer[V any] struct {
	out  io.Writer
	fl   Flusher
	enc  Encoding
	wire func(V) Violation       // the JSON form
	body func([]byte, *V) []byte // appends the binary body, declarations and all

	mu      sync.Mutex
	room    sync.Cond // Send waits here while maxPending violations are pending
	pending []V
	closed  bool
	endErr  string
	werr    error

	wake chan struct{}
	done chan struct{}

	count int64 // violations written; read via Count after Close
}

// NewWriter starts a writer of engine violations over out. fl may be nil.
func NewWriter(out io.Writer, fl Flusher, enc Encoding, _ Options) *Writer[detect.Violation] {
	return newWriter(out, fl, enc, Convert, newEncoder().appendViolation)
}

// NewRelayWriter starts a writer of undecoded binary records over out: the
// router's half, relaying the records it merged from shard streams. A
// Binary stream relays each record's entry with its refs renumbered into
// the output's tables, declaring each constraint and tuple the first time
// a relayed record cites it; NDJSON and JSON decode each record once,
// through one intern cache and one witness buffer the writer reuses. Either
// way it writes what a single node's NewWriter would for the same
// violations. fl may be nil.
func NewRelayWriter(out io.Writer, fl Flusher, enc Encoding) *Writer[Record] {
	var r batchReader
	wire := func(rec Record) Violation {
		// The violation lives only until it is encoded, so each record
		// rewinds the witness slabs instead of filling fresh ones.
		r.vals, r.tups = r.vals[:0], r.tups[:0]
		var v Violation
		r.decodeRecord(&rec, &v)
		return v
	}
	return newWriter(out, fl, enc, wire, new(relayDict).appendRecord)
}

func newWriter[V any](out io.Writer, fl Flusher, enc Encoding, wire func(V) Violation, body func([]byte, *V) []byte) *Writer[V] {
	w := &Writer[V]{
		out: out, fl: fl, enc: enc, wire: wire, body: body,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	w.room.L = &w.mu
	go w.run()
	return w
}

// Send queues one violation. It returns false once the stream is closed or
// the underlying writer has failed (the client is gone) — the caller
// should stop. Writes happen on the encoder goroutine, so a failure is
// reported by a later Send than the one whose violation met it. Send
// blocks while maxPending violations are pending: a fast producer cannot
// buffer a whole stream ahead of a slow client, memory per stream stays
// bounded, and cancellation (Drain, disconnect) still reaches a stream
// mid-flight.
func (w *Writer[V]) Send(v V) bool {
	w.mu.Lock()
	for len(w.pending) >= maxPending && w.werr == nil && !w.closed {
		w.room.Wait()
	}
	ok := w.werr == nil && !w.closed
	if ok {
		w.pending = append(w.pending, v)
	}
	wake := ok && len(w.pending) == 1
	w.mu.Unlock()
	if wake {
		w.signal()
	}
	return ok
}

func (w *Writer[V]) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Close writes the encoding's clean end-of-stream trailer after every
// violation sent, flushes, and waits for the encoder goroutine to exit. It
// returns the first write error the stream hit, if any.
func (w *Writer[V]) Close() error { return w.finish("") }

// CloseError ends the stream with the encoding's terminal error record —
// the signal that the stream is truncated by cancellation, not complete.
func (w *Writer[V]) CloseError(msg string) error {
	if msg == "" {
		msg = "stream aborted"
	}
	return w.finish(msg)
}

// Count returns the number of violations written; valid after Close or
// CloseError has returned.
func (w *Writer[V]) Count() int64 { return w.count }

func (w *Writer[V]) finish(endErr string) error {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		w.endErr = endErr
	}
	w.mu.Unlock()
	w.signal()
	<-w.done
	return w.werr // the encoder, its only writer, has exited
}

func (w *Writer[V]) setWerr(err error) {
	w.mu.Lock()
	if w.werr == nil {
		w.werr = err
	}
	w.mu.Unlock()
	w.room.Broadcast() // a blocked producer must see the failure, not wait
}

// run is the encoder goroutine: swap out the pending violations, encode,
// flush by size or deadline, emit the terminal record on close.
func (w *Writer[V]) run() {
	defer close(w.done)
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBuf {
			buf.Reset()
			bufPool.Put(buf)
		}
	}()
	if w.enc == Binary {
		startBatch(buf, 'B')
	}
	timer := time.NewTimer(flushInterval)
	timer.Stop()
	defer timer.Stop()
	var flushC <-chan time.Time
	var batch []V
	failed := false
	var count int64
	for {
		w.mu.Lock()
		batch, w.pending = w.pending, batch[:0]
		closed, endErr := w.closed, w.endErr
		w.mu.Unlock()
		if len(batch) >= maxPending {
			w.room.Broadcast()
		}
		for i := 0; i < len(batch) && !failed; i++ {
			w.encode(buf, &batch[i], count)
			count++
			if count == 1 || w.buffered(buf) >= flushBytes {
				failed = w.flush(buf)
				flushC = nil
			}
		}
		if closed {
			w.count = count
			if !failed {
				w.writeTerminal(buf, endErr, count)
			}
			return
		}
		if !failed && flushC == nil && w.buffered(buf) > 0 {
			timer.Reset(flushInterval)
			flushC = timer.C
		}
		select {
		case <-w.wake:
		case <-flushC:
			flushC = nil
			if !failed {
				failed = w.flush(buf)
			}
		}
	}
}

// startBatch seeds an empty buffer with a binary frame's reserved header
// and its tag, so the frame is sealed in place, never copied.
func startBatch(buf *bytes.Buffer, tag byte) {
	var hdr [wal.FrameHeader + 1]byte
	hdr[wal.FrameHeader] = tag
	buf.Write(hdr[:])
}

// buffered is the number of payload bytes awaiting a flush.
func (w *Writer[V]) buffered(buf *bytes.Buffer) int {
	if w.enc == Binary {
		return buf.Len() - wal.FrameHeader - 1 // the standing header and 'B' tag are not payload
	}
	return buf.Len()
}

// encode appends one violation, the stream's count-th, to the encode
// buffer.
func (w *Writer[V]) encode(buf *bytes.Buffer, v *V, count int64) {
	switch w.enc {
	case JSONArray:
		if count == 0 {
			buf.WriteString(`{"violations":[`)
		} else {
			buf.WriteByte(',')
		}
		wv := w.wire(*v)
		buf.Write(appendJSON(buf.AvailableBuffer(), &wv))
	case Binary:
		buf.Write(w.body(buf.AvailableBuffer(), v))
	default:
		wv := w.wire(*v)
		buf.Write(append(appendJSON(buf.AvailableBuffer(), &wv), '\n'))
	}
}

// flush sends the buffered payload to the client and reports failure. For
// Binary the buffer is one 'B' batch frame, sealed in place exactly like a
// WAL record; the buffer is re-seeded for the next batch.
func (w *Writer[V]) flush(buf *bytes.Buffer) bool {
	var err error
	switch w.enc {
	case Binary:
		if w.buffered(buf) == 0 {
			return false
		}
		err = writeFrame(w.out, buf.Bytes())
		buf.Reset()
		startBatch(buf, 'B')
	default:
		if buf.Len() == 0 {
			return false
		}
		_, err = w.out.Write(buf.Bytes())
		buf.Reset()
	}
	if err != nil {
		w.setWerr(err)
		return true
	}
	if w.fl != nil {
		w.fl.Flush()
	}
	return false
}

// writeFrame seals a frame whose header startBatch reserved and writes it
// in one Write.
func writeFrame(out io.Writer, frame []byte) error {
	if err := wal.SealFrame(frame); err != nil {
		return err
	}
	_, err := out.Write(frame)
	return err
}

// writeTerminal flushes what remains and writes the encoding's terminal
// record: the trailer (clean end, with the count) or the error record.
func (w *Writer[V]) writeTerminal(buf *bytes.Buffer, endErr string, count int64) {
	var err error
	switch w.enc {
	case Binary:
		if w.flush(buf) {
			return
		}
		buf.Reset()
		if endErr != "" {
			startBatch(buf, 'E')
			buf.WriteString(endErr[:min(len(endErr), wal.MaxRecord-1)])
		} else {
			startBatch(buf, 'Z')
			buf.Write(binary.AppendUvarint(buf.AvailableBuffer(), uint64(count)))
		}
		err = writeFrame(w.out, buf.Bytes())
	case JSONArray:
		if count == 0 {
			buf.WriteString(`{"violations":[`)
		}
		if endErr != "" {
			b, _ := json.Marshal(endErr)
			fmt.Fprintf(buf, `],"error":%s}`+"\n", b)
		} else {
			fmt.Fprintf(buf, `],"done":true,"count":%d}`+"\n", count)
		}
		_, err = w.out.Write(buf.Bytes())
	default: // NDJSON: trailer line, or the errorWire-shaped error line
		if endErr != "" {
			b, _ := json.Marshal(endErr)
			fmt.Fprintf(buf, `{"error":%s}`+"\n", b)
		} else {
			fmt.Fprintf(buf, `{"done":true,"count":%d}`+"\n", count)
		}
		_, err = w.out.Write(buf.Bytes())
	}
	buf.Reset()
	if err != nil {
		w.setWerr(err)
	} else if w.fl != nil {
		w.fl.Flush()
	}
}
