package server

import (
	"expvar"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"

	"cind/internal/stream"
)

const maxKeptBody = 16 << 20 // a longer stream is served, but not kept

// memoSource mints the body memos of one server's datasets: each memo
// gets an instance id no other dataset of this server carries, nor any
// dataset of the same server after a restart, and adds to the server's
// counters.
type memoSource struct {
	nonce              uint64 // drawn once per server
	made               atomic.Uint64
	hits, fills, bytes *expvar.Int
}

func newMemoSource() *memoSource {
	return &memoSource{nonce: rand.Uint64(), hits: new(expvar.Int), fills: new(expvar.Int), bytes: new(expvar.Int)}
}

// bodyMemo keeps a dataset's complete violation stream bodies, one per
// encoding, of the key last read unlimited: a local dataset keys it on the
// cind.Version a read pinned, a routed one on a routedKey. A key's bytes
// never change, so its later unlimited reads in an encoding write the kept
// body instead of producing it again. Only a key's second read keeps a
// body, and a new key ends the old one's.
//
// A read's entity tag names the memo's instance, the epoch of its key and
// the encoding. The epoch grows whenever the memo sees a new key, so a tag
// never names two bodies.
type bodyMemo[K comparable] struct {
	src  *memoSource
	inst string

	mu     sync.Mutex
	key    K
	epoch  uint64
	bodies [stream.Binary + 1]keptBody
}

func newMemo[K comparable](src *memoSource) *bodyMemo[K] {
	return &bodyMemo[K]{src: src, inst: fmt.Sprintf("%x.%d", src.nonce, src.made.Add(1))}
}

// memoRead is one unlimited read of a memo key in one encoding: its entity
// tag, the body kept for it (nil when none) and whether the read keeps its
// body. The zero memoRead is a read the memo takes no part in.
type memoRead[K comparable] struct {
	m    *bodyMemo[K]
	key  K
	enc  stream.Encoding
	tag  string
	kept keptBody
	fill bool
}

// open registers an unlimited read of key in enc: a key new to the memo
// replaces the kept bodies and starts a new epoch, and a recurring key's
// read keeps its body when none is kept in enc.
func (m *bodyMemo[K]) open(key K, enc stream.Encoding) memoRead[K] {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := memoRead[K]{m: m, key: key, enc: enc}
	if key != m.key {
		m.key, m.bodies = key, [len(m.bodies)]keptBody{}
		m.epoch++
	} else {
		r.kept = m.bodies[enc]
		r.fill = r.kept.body == nil
	}
	r.tag = m.tagLocked(enc)
	return r
}

// current is open of the memo's current key, without registering a read.
// Its key is the zero K when the memo has seen none.
func (m *bodyMemo[K]) current(enc stream.Encoding) memoRead[K] {
	m.mu.Lock()
	defer m.mu.Unlock()
	return memoRead[K]{m: m, key: m.key, enc: enc, tag: m.tagLocked(enc), kept: m.bodies[enc]}
}

// tagLocked is a weak tag: a version's report never changes, but a cold
// binary read's frame boundaries follow flush timing.
func (m *bodyMemo[K]) tagLocked(enc stream.Encoding) string {
	return fmt.Sprintf(`W/"%s.%d.%s"`, m.inst, m.epoch, enc)
}

// put keeps body as key's stream in enc, unless a read of another key came
// since.
func (m *bodyMemo[K]) put(key K, enc stream.Encoding, body []byte, end int, count int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.key == key {
		m.bodies[enc] = keptBody{body: body, end: end, count: count}
		m.src.fills.Add(1)
	}
}

func (r *memoRead[K]) etag() string { return r.tag }

// hit returns the read's kept body as a streamWriter to out, counting the
// hit; nil when none is kept.
func (r *memoRead[K]) hit(out io.Writer, fl stream.Flusher) *keptBody {
	if r.kept.body == nil {
		return nil
	}
	r.m.src.hits.Add(1)
	r.m.src.bytes.Add(int64(len(r.kept.body)))
	k := r.kept
	k.out, k.fl = out, fl
	return &k
}

// keep makes sw hand its body to the memo when the read fills.
func (r *memoRead[K]) keep(sw interface {
	Keep(int, func(body []byte, end int, count int64))
}) {
	if r.fill {
		sw.Keep(maxKeptBody, func(body []byte, end int, count int64) { r.m.put(r.key, r.enc, body, end, count) })
	}
}

// noneMatch reports whether an If-None-Match header names tag, comparing
// weakly as the header's semantics demand.
func noneMatch(header, tag string) bool {
	if header == "" || tag == "" {
		return false
	}
	tag = strings.TrimPrefix(tag, "W/")
	for _, t := range strings.Split(header, ",") {
		if t = strings.TrimSpace(t); t == "*" || strings.TrimPrefix(t, "W/") == tag {
			return true
		}
	}
	return false
}

// keptBody is one encoding's kept stream, its terminal record starting at
// body[end], and the number of violations in it. It is the streamWriter
// of a memo hit: run writes the violations, and Close the terminal
// record.
type keptBody struct {
	body    []byte
	end     int
	count   int64
	out     io.Writer
	fl      stream.Flusher
	written int64
}

// writeViolations writes the kept body up to its terminal record and
// returns the stream's terminal error, "" when the write succeeded.
func (k *keptBody) writeViolations() string {
	if k.write(k.body[:k.end]) != nil {
		return "client write failed"
	}
	return ""
}

func (k *keptBody) Close() error {
	err := k.write(k.body[k.end:])
	if err == nil {
		k.written = k.count
	}
	return err
}

func (k *keptBody) write(b []byte) error {
	_, err := k.out.Write(b)
	if err == nil && k.fl != nil {
		k.fl.Flush()
	}
	return err
}

// CloseError ends a hit only after writing its violations failed: the
// client is gone, and no error record could reach it.
func (k *keptBody) CloseError(string) error { return nil }

func (k *keptBody) Count() int64 { return k.written }
