package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"cind/internal/stream"
)

// trailerProbe records a response and runs probe inside the Write that
// carries the NDJSON trailer: the first moment a client could have read the
// whole stream.
type trailerProbe struct {
	*httptest.ResponseRecorder
	probe func()
}

func (p *trailerProbe) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte(`{"done":true`)) {
		p.probe()
	}
	return p.ResponseRecorder.Write(b)
}

// TestStreamMetricsSettleBeforeTrailer pins that /metrics agrees with any
// stream a client has finished reading, on a single node and on a router's
// scatter-gather stream alike: when the trailer is written, the stream is
// already counted in violations_streamed, gone from active_streams and
// observed in the violations latency histogram.
func TestStreamMetricsSettleBeforeTrailer(t *testing.T) {
	for _, mode := range serveModes {
		t.Run(mode.name, func(t *testing.T) {
			s, ts := mode.start(t)
			loadBankHTTP(t, ts.Client(), ts.URL, "bank")
			var streamed, active, observed int64 = -1, -1, -1
			w := &trailerProbe{ResponseRecorder: httptest.NewRecorder(), probe: func() {
				streamed, active = s.nStreamed.Value(), s.nActiveStream.Value()
				observed = s.latency["violations"].total.Load()
			}}
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/datasets/bank/violations", nil))
			vs, err := stream.DecodeAll(w.Body, stream.NDJSON)
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) == 0 {
				t.Fatal("bank stream carried no violations; the check is vacuous")
			}
			if streamed != int64(len(vs)) || active != 0 || observed != 1 {
				t.Fatalf("at the trailer: violations_streamed=%d active_streams=%d violations latency count=%d; want %d, 0, 1",
					streamed, active, observed, len(vs))
			}
		})
	}
}
