package server

import (
	"math/bits"
	"net/http"
	"sync/atomic"
	"time"
)

// latencyBuckets covers [0, 2^39) microseconds in log2 buckets — bucket b
// holds observations whose microsecond count has bit length b, i.e. the
// range [2^(b-1), 2^b) with bucket 0 for exactly 0µs. 2^39µs is ~6.4 days,
// far past any request this server can serve.
const latencyBuckets = 40

// latencyHistogram is a lock-free log2-bucketed latency histogram. Observe
// is a few atomic adds, cheap enough to wrap every endpoint including the
// violations hot path; quantiles are computed on demand by the /metrics
// reader. Quantile answers are upper bounds of the bucket holding the
// rank — at most 2x the true value, which is the resolution regressions
// are hunted at.
type latencyHistogram struct {
	counts [latencyBuckets]atomic.Int64
	total  atomic.Int64
	sumUS  atomic.Int64
	maxUS  atomic.Int64
}

// Observe records one request duration.
func (h *latencyHistogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us))
	if b >= latencyBuckets {
		b = latencyBuckets - 1
	}
	h.counts[b].Add(1)
	h.total.Add(1)
	h.sumUS.Add(us)
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			return
		}
	}
}

// quantile returns an upper bound for the q-quantile in microseconds
// (0 when nothing was observed).
func (h *latencyHistogram) quantile(q float64) int64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for b := 0; b < latencyBuckets; b++ {
		seen += h.counts[b].Load()
		if seen > rank {
			if b == 0 {
				return 0
			}
			upper := (int64(1) << b) - 1
			if mx := h.maxUS.Load(); upper > mx {
				upper = mx
			}
			return upper
		}
	}
	return h.maxUS.Load()
}

// snapshot renders the histogram for the /metrics map.
func (h *latencyHistogram) snapshot() map[string]int64 {
	total := h.total.Load()
	out := map[string]int64{
		"count":  total,
		"p50_us": h.quantile(0.50),
		"p99_us": h.quantile(0.99),
		"max_us": h.maxUS.Load(),
	}
	if total > 0 {
		out["mean_us"] = h.sumUS.Load() / total
	}
	return out
}

// instrument wraps a handler with a named latency histogram, published
// under "latency_us" in the /metrics map. Registration happens in New,
// before the server serves, so the map needs no lock.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrumentStream(name, func(w http.ResponseWriter, r *http.Request, _ func()) { h(w, r) })
}

// instrumentStream is instrument for a streaming handler, which calls
// observe itself just before it hands the stream's terminal record to the
// writer: a client that has read the whole stream then already finds the
// request in the histogram. A handler that returns without calling observe
// is observed on return; later calls are no-ops.
func (s *Server) instrumentStream(name string, h func(w http.ResponseWriter, r *http.Request, observe func())) http.HandlerFunc {
	hist := new(latencyHistogram)
	s.latency[name] = hist
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		observed := false
		observe := func() {
			if !observed {
				observed = true
				hist.Observe(time.Since(start))
			}
		}
		h(w, r, observe)
		observe()
	}
}

// latencySnapshot is the expvar.Func body for "latency_us": per-endpoint
// p50/p99/max/mean in microseconds. Endpoints with no traffic yet are
// omitted to keep the metrics page signal-dense.
func (s *Server) latencySnapshot() any {
	out := make(map[string]map[string]int64, len(s.latency))
	for name, hist := range s.latency {
		if hist.total.Load() == 0 {
			continue
		}
		out[name] = hist.snapshot()
	}
	return out
}
