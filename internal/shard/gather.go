package shard

import (
	"errors"
	"fmt"
	"io"

	"cind/internal/detect"
	"cind/internal/stream"
)

// Stream is one shard's report-ordered stream of V — decoded violations
// or undecoded binary records. Next returns io.EOF after a clean terminal
// record; any other error marks the stream failed (truncated, or a
// shard-reported error).
type Stream[V any] interface {
	Next() (V, error)
}

// Source is a stream of decoded violations — *stream.Decoder satisfies it.
type Source = Stream[stream.Violation]

// ErrStopped is returned by Merge when emit ended the merge early (a
// client limit, or the downstream writer failing) — not a stream failure,
// but not an exhausted merge either: per-shard counts must not be checked
// against trailers.
var ErrStopped = errors.New("shard: merge stopped by consumer")

// Merge k-way merges per-shard report-ordered streams into the
// single-node global report order and hands each value to emit. keyOf
// reconstructs a value's detect.MergeKey (and may veto it: keep false
// drops the value; the router instead fails a violation whose shard does
// not own its constraint, since each shard holds only Plan.Owned).
// Streams must each be non-decreasing in key order — which a shard's
// report-order stream is under any Plan placement, over Σ or any
// order-preserving subset of it — and no two streams tie on a full key,
// so picking the smallest head (ties to the lowest shard) reproduces the
// global order exactly. Each head is read and keyed in place, so the
// merge allocates nothing per value.
//
// Merge returns the number of values emitted and the first failure: a
// source error (wrapped with its shard index), a keyOf error, or
// ErrStopped when emit returned false. A nil error means every stream
// ended cleanly (io.EOF) and everything kept was emitted.
func Merge[V any](sources []Stream[V], keyOf func(shard int, v *V) (detect.MergeKey, bool, error), emit func(*V) bool) (int64, error) {
	type head struct {
		v   V
		key detect.MergeKey
		ok  bool
	}
	heads := make([]head, len(sources))

	// advance refills heads[i] with the next kept value of source i.
	advance := func(i int) error {
		h := &heads[i]
		for {
			var err error
			h.v, err = sources[i].Next()
			if err == io.EOF {
				h.ok = false
				return nil
			}
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			key, keep, err := keyOf(i, &h.v)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			if keep {
				h.key, h.ok = key, true
				return nil
			}
		}
	}

	for i := range sources {
		if err := advance(i); err != nil {
			return 0, err
		}
	}
	var n int64
	for {
		min := -1
		for i := range heads {
			if !heads[i].ok {
				continue
			}
			if min < 0 || heads[i].key.Less(heads[min].key) {
				min = i
			}
		}
		if min < 0 {
			return n, nil
		}
		if !emit(&heads[min].v) {
			return n, ErrStopped
		}
		n++
		if err := advance(min); err != nil {
			return n, err
		}
	}
}
