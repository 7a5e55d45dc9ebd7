package shard

import (
	"errors"
	"fmt"
	"io"

	"cind/internal/detect"
	"cind/internal/stream"
)

// Source is one shard's violation stream — *stream.Decoder satisfies it.
// Next returns io.EOF after a clean terminal record; any other error marks
// the stream failed (truncated, or a shard-reported error).
type Source interface {
	Next() (stream.Violation, error)
}

// ErrStopped is returned by Merge when emit ended the merge early (a
// client limit, or the downstream writer failing) — not a stream failure,
// but not an exhausted merge either: per-shard counts must not be checked
// against trailers.
var ErrStopped = errors.New("shard: merge stopped by consumer")

// Merge k-way merges per-shard report-ordered violation streams into the
// single-node global report order and hands each violation to emit. keyOf
// reconstructs a violation's detect.MergeKey (and may veto it: keep false
// drops the violation; the router instead fails a violation whose shard
// does not own its constraint, since each shard holds only Plan.Owned).
// Streams must each be non-decreasing in key order — which a shard's
// report-order stream is under any Plan placement, over Σ or any
// order-preserving subset of it — and no two streams tie on a full key,
// so picking the smallest head (ties to the lowest shard) reproduces the
// global order exactly.
//
// Merge returns the number of violations emitted and the first failure:
// a source error (wrapped with its shard index), a keyOf error, or
// ErrStopped when emit returned false. A nil error means every stream
// ended cleanly (io.EOF) and everything kept was emitted.
func Merge(sources []Source, keyOf func(shard int, v *stream.Violation) (detect.MergeKey, bool, error), emit func(*stream.Violation) bool) (int64, error) {
	type head struct {
		v   stream.Violation
		key detect.MergeKey
		ok  bool
	}
	heads := make([]head, len(sources))

	// advance refills heads[i] with the next kept violation of source i.
	advance := func(i int) error {
		for {
			v, err := sources[i].Next()
			if err == io.EOF {
				heads[i].ok = false
				return nil
			}
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			key, keep, err := keyOf(i, &v)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			if !keep {
				continue
			}
			heads[i] = head{v: v, key: key, ok: true}
			return nil
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
