package server

import (
	"expvar"
	"io"
	"sync"

	"cind"
	"cind/internal/stream"
)

const maxKeptBody = 16 << 20 // a longer stream is served, but not kept

// bodyMemo keeps a local dataset's complete violation stream bodies, one
// per encoding, of the version last read unlimited. A version's bytes
// never change, so its later unlimited reads in an encoding write the kept
// body instead of replaying and encoding the report. Only a version's
// second read keeps a body, and a write ends the version.
type bodyMemo struct {
	mu     sync.Mutex
	ver    cind.Version
	bodies [stream.Binary + 1]keptBody

	hits, fills, bytes *expvar.Int // the server's, shared by its datasets
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

// lookup returns ver's kept body in enc as a streamWriter to out, counting
// the hit; else nil, and whether the read should fill: if ver was read before.
func (m *bodyMemo) lookup(ver cind.Version, enc stream.Encoding, out io.Writer, fl stream.Flusher) (*keptBody, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ver != ver {
		m.ver, m.bodies = ver, [len(m.bodies)]keptBody{}
		return nil, false
	}
	k := m.bodies[enc]
	if k.body == nil {
		return nil, true
	}
	m.hits.Add(1)
	m.bytes.Add(int64(len(k.body)))
	k.out, k.fl = out, fl
	return &k, false
}

// put keeps body as ver's stream in enc, unless a read of another version
// came since.
func (m *bodyMemo) put(ver cind.Version, enc stream.Encoding, body []byte, end int, count int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ver == ver {
		m.bodies[enc] = keptBody{body: body, end: end, count: count}
		m.fills.Add(1)
	}
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
