package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"cind/internal/server"
	"cind/internal/stream"
	"cind/internal/wal"
)

// workload is one traffic mix. Its why is mirrored in BENCHMARK.json.
type workload struct {
	name string
	why  string
	// tail is the percentile, in parts per thousand, that tail_ms reports:
	// p90, unless that percentile does not repeat from run to run.
	tail int
	new  func(seed int64, seconds float64) bench
}

// bench is one workload instance in one process.
type bench interface {
	// prepare computes the oracle's expectations, once, outside the timed
	// set-up.
	prepare() error
	// setup generates the inputs, starts the servers, loads the data and
	// runs the first, cold operation.
	setup() error
	// drive runs the workload's traffic until end and returns its
	// operations and any auxiliary requests, which count as attempts but
	// are not the operation the latency metrics describe. With a tracer,
	// every other operation records client spans; sp samples the host's
	// speed between operations.
	drive(end time.Time, tr *tracer, sp *speed) (ops, aux []sample)
	// check runs the end-of-run oracle checks. It may stop the servers.
	check(out *report) error
	// teardown stops whatever setup started that is still running.
	teardown() error
	// replay is the workload's input to the in-process layer replay.
	replay() *replayInput
}

// replayInput is what the layer replay feeds each module.
type replayInput struct {
	bank        *dataset  // the bank-schema dataset as served
	script      [][]delta // delta batches against it
	consistency string    // spec of the Σ the consistency request decides
	goals       string    // implication goals against bank's Σ
	path        []string  // layer metrics on the request path (server.self_ms)
}

var workloads = []*workload{
	{name: "scan-clean", tail: 900, why: "NDJSON scans of a ~100k-tuple bank with 75 seeded violations: detect coding and CIND anti-joins dominate",
		new: func(seed int64, _ float64) bench {
			return &scanBench{seed: seed, enc: stream.NDJSON, data: cleanBank,
				path: []string{"detect.each_ms", "stream.ndjson.encode_ms", "stream.ndjson.decode_ms"}}
		}},
	{name: "scan-dirty", tail: 900, why: "binary scans of an ~11k-tuple bank with ~50k pair violations: enumeration, encoding and client decode dominate",
		new: func(seed int64, _ float64) bench {
			return &scanBench{seed: seed, enc: stream.Binary, data: denseBank,
				path: []string{"detect.each_ms", "stream.binary.encode_ms", "stream.binary.decode_ms"}}
		}},
	{name: "scan-routed", tail: 900, why: "the scan-dirty data through a router over 2 shards: scatter, binary re-decode and k-way merge dominate",
		new: func(seed int64, _ float64) bench {
			return &scanBench{seed: seed, enc: stream.Binary, data: denseBank, routed: true,
				path: []string{"shard.detect_max_ms", "shard.decode_ms", "shard.merge_ms", "stream.binary.encode_ms", "stream.binary.decode_ms"}}
		}},
	// delta-churn's p90 and p99 sit on the knee that snapshot stalls put in
	// its latency curve: over ten runs on a shared 2-CPU host they spread
	// 18% and 39%, where p75 repeats.
	{name: "delta-churn", tail: 750, why: "500 delta batches/s to a durable dataset with a full report read every 250ms: session apply, WAL and snapshots dominate",
		new: func(seed int64, seconds float64) bench {
			return &churnBench{seed: seed, batches: int((seconds*1.2 + 2) * churnRate)}
		}},
	{name: "reason", tail: 900, why: "implication, Fig 11(b) consistency and minimize rounds: the Section 3-5 engines dominate, detect and WAL idle",
		new: func(seed int64, _ float64) bench { return &reasonBench{seed: seed} }},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// oracleError is a served output that disagrees with the in-process oracle.
type oracleError struct{ msg string }

func (e *oracleError) Error() string { return "oracle: " + e.msg }

func mismatch(format string, args ...any) error {
	return &oracleError{msg: fmt.Sprintf(format, args...)}
}

// traceEveryOther returns tr for even operations and nil for odd ones, so
// the traced pass measures traced and untraced operations side by side.
func traceEveryOther(tr *tracer, i int) *tracer {
	if i%2 == 0 {
		return tr
	}
	return nil
}

// --- scans ---

// scanBench repeatedly streams a dataset's full violation report.
type scanBench struct {
	seed   int64
	enc    stream.Encoding
	routed bool
	data   func(seed int64) *dataset
	path   []string

	d      *dataset
	want   digest
	nodes  []*node // the router, if any, last
	c      *client
	buf    []stream.Violation
	oracle error
}

func (b *scanBench) prepare() (err error) {
	b.want, err = expected(b.data(b.seed))
	return err
}

func (b *scanBench) setup() error {
	b.d = b.data(b.seed)
	front, err := startServer(server.Options{})
	if err != nil {
		return err
	}
	b.nodes = []*node{front}
	if b.routed {
		second, err := startServer(server.Options{})
		if err != nil {
			return err
		}
		b.nodes = append(b.nodes, second)
		if front, err = startRouter(b.nodes); err != nil {
			return err
		}
		b.nodes = append(b.nodes, front)
	}
	b.c = newClient(front.url)
	if err := b.c.load(b.d); err != nil {
		return err
	}
	if s := b.op(0, nil); s.err != nil {
		return fmt.Errorf("cold scan: %w", s.err)
	}
	return b.oracle
}

func (b *scanBench) op(i int, tr *tracer) sample {
	x, vs, err := b.c.violations(b.d.name, b.enc, b.buf)
	b.buf = vs
	s := sample{lat: x.end.Sub(x.start), err: err, traced: tr != nil}
	if err != nil {
		return s
	}
	x.trace(tr, tr.add("op", -1, int64(i), x.start, x.end), int64(i))
	if got := digestOf(vs); got != b.want && b.oracle == nil {
		b.oracle = mismatch("scan %d decoded %v, Checker.Detect gives %v", i, got, b.want)
	}
	return s
}

func (b *scanBench) drive(end time.Time, tr *tracer, sp *speed) ([]sample, []sample) {
	return closedLoop(end, func(i int) sample {
		sp.sample()
		return b.op(i, traceEveryOther(tr, i))
	}), nil
}

func (b *scanBench) check(*report) error { return b.oracle }

func (b *scanBench) teardown() error {
	if b.c != nil {
		b.c.close()
	}
	var err error
	for i := len(b.nodes) - 1; i >= 0; i-- {
		if serr := b.nodes[i].stop(); err == nil {
			err = serr
		}
	}
	b.nodes, b.c = nil, nil
	return err
}

func (b *scanBench) replay() *replayInput {
	return &replayInput{bank: b.d, script: newChurn(b.seed, b.d.rows["checking"]).script(replayBatches),
		consistency: b.d.spec, goals: goalsText(b.seed), path: b.path}
}

// --- delta churn ---

// churnRate is delta-churn's batch rate, readEvery the period of its
// full-report reads, and churnSync its WAL group-commit interval. With an
// fsync per batch the host disk, not the server, set the run's latency: on
// a shared 2-CPU host the median moved from 0.56 to 1.26 ms between runs of
// one build.
const (
	churnRate = 500
	readEvery = 250 * time.Millisecond
	churnSync = 100 * time.Millisecond
)

// churnBench drives POST /deltas on a durable dataset at a fixed rate
// while a second connection reads the full report.
type churnBench struct {
	seed    int64
	batches int

	d        *dataset
	script   [][]delta
	dir      string
	n        *node
	w, r     *client
	sent     int // batches sent so far, across drives
	failures int // batches that failed; the final-report check needs none
}

func churnOptions(dir string) server.Options {
	return server.Options{DataDir: dir, Fsync: wal.Policy{Mode: wal.SyncInterval, Interval: churnSync}}
}

// prepare has nothing to do: delta-churn's oracle replays the batches the
// run actually sent, after the run.
func (b *churnBench) prepare() error { return nil }

func (b *churnBench) setup() error {
	b.d, b.script = churnInputs(b.seed, b.batches)
	b.sent, b.failures = 0, 0
	dir, err := os.MkdirTemp("", "cindbench-wal-")
	if err != nil {
		return err
	}
	b.dir = dir
	if b.n, err = startServer(churnOptions(dir)); err != nil {
		return err
	}
	b.w, b.r = newClient(b.n.url), newClient(b.n.url)
	if err := b.w.load(b.d); err != nil {
		return err
	}
	// The empty batch seeds the session: the dataset's one full replay.
	if _, err := b.w.call(http.MethodPost, "/datasets/"+b.d.name+"/deltas", []byte(`{"deltas":[]}`), nil); err != nil {
		return fmt.Errorf("seed session: %w", err)
	}
	return nil
}

func (b *churnBench) drive(end time.Time, tr *tracer, sp *speed) ([]sample, []sample) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads []sample
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = b.reads(stop, tr)
	}()
	path := "/datasets/" + b.d.name + "/deltas"
	first := b.sent
	var traced []bool
	// The speed kernel runs in every fifth gap between batches, where the
	// writer would otherwise sleep.
	idle := func(i int) {
		if i%5 == 0 {
			sp.sample()
		}
	}
	writes := openLoop(realClock{}, time.Now(), time.Second/churnRate, end, idle, func(i int) error {
		k := first + i
		t := traceEveryOther(tr, k)
		traced = append(traced, t != nil)
		if k >= len(b.script) {
			return fmt.Errorf("delta script exhausted after %d batches", len(b.script))
		}
		b.sent = k + 1
		var resp struct{ Durable *bool }
		x, err := b.w.call(http.MethodPost, path, deltaBody(b.script[k]), &resp)
		x.trace(t, t.add("op", -1, int64(k), x.start, x.end), int64(k))
		if err == nil && (resp.Durable == nil || !*resp.Durable) {
			err = fmt.Errorf("batch %d answered durable:false", k)
		}
		if err != nil {
			b.failures++
		}
		return err
	})
	for i := range writes {
		writes[i].traced = traced[i]
	}
	close(stop)
	wg.Wait()
	return writes, reads
}

// reads GETs the full NDJSON report every readEvery until stop.
func (b *churnBench) reads(stop <-chan struct{}, tr *tracer) []sample {
	tick := time.NewTicker(readEvery)
	defer tick.Stop()
	var out []sample
	var buf []stream.Violation
	for i := 0; ; i++ {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		x, vs, err := b.r.violations(b.d.name, stream.NDJSON, buf)
		buf = vs
		req := -int64(i) - 1 // reads number their requests below zero
		x.trace(tr, tr.add("read", -1, req, x.start, x.end), req)
		out = append(out, sample{lat: x.end.Sub(x.start), err: err})
	}
}

func (b *churnBench) check(out *report) error {
	m, err := b.w.metrics()
	if err != nil {
		return fmt.Errorf("read /metrics: %w", err)
	}
	var fsyncs, appends float64
	if err := errors.Join(json.Unmarshal(m["wal_fsyncs"], &fsyncs), json.Unmarshal(m["wal_appends"], &appends)); err != nil {
		return fmt.Errorf("read /metrics: %w", err)
	}
	out.fsyncsPerBatch = fsyncs / max(appends, 1)
	if b.failures == 0 {
		_, vs, err := b.w.violations(b.d.name, stream.NDJSON, nil)
		if err != nil {
			return fmt.Errorf("final report: %w", err)
		}
		want, err := replayed(b.d, b.script, b.sent)
		if err != nil {
			return err
		}
		if got := digestOf(vs); got != want {
			return mismatch("after %d batches the served report is %v, the replayed Detect gives %v", b.sent, got, want)
		}
	}
	var first digest
	for i := 1; i <= reopens; i++ {
		got, err := b.reopen(out, i)
		if err != nil {
			return err
		}
		if i == 1 {
			first = got
		} else if got != first {
			return mismatch("reopen %d recovered %v, reopen 1 recovered %v", i, got, first)
		}
	}
	return nil
}

// reopens is how many times delta-churn recovers its data directory.
const reopens = 5

// reopen stops the running server, recovers the data directory in a new
// one, times the recovery and fingerprints the recovered report.
func (b *churnBench) reopen(out *report, i int) (digest, error) {
	b.w.close()
	b.r.close()
	err := b.n.stop()
	b.n = nil
	if err != nil {
		return digest{}, err
	}
	start := time.Now()
	n, err := startServer(churnOptions(b.dir))
	if err != nil {
		return digest{}, fmt.Errorf("reopen %d: %w", i, err)
	}
	out.recovery = append(out.recovery, time.Since(start))
	b.n = n
	b.w, b.r = newClient(n.url), newClient(n.url)
	_, vs, err := b.w.violations(b.d.name, stream.NDJSON, nil)
	if err != nil {
		return digest{}, fmt.Errorf("reopen %d: %w", i, err)
	}
	return digestOf(vs), nil
}

func (b *churnBench) teardown() error {
	var err error
	if b.n != nil {
		b.w.close()
		b.r.close()
		err = b.n.stop()
		b.n = nil
	}
	if b.dir != "" {
		if rerr := os.RemoveAll(b.dir); err == nil {
			err = rerr
		}
		b.dir = ""
	}
	return err
}

func (b *churnBench) replay() *replayInput {
	return &replayInput{bank: b.d, script: b.script[:replayBatches], consistency: b.d.spec,
		goals: goalsText(b.seed), path: []string{"session.apply_us_p50", "wal.append_us_p50", "wal.fsync_us_p50"}}
}

// --- reasoning ---

// reasonBench runs rounds of the three reasoning requests.
type reasonBench struct {
	seed int64

	d      *dataset
	fig    string
	goals  []byte
	n      *node
	c      *client
	oracle error
}

// The pinned verdicts: Example 3.3 is implied and its converse is not, the
// Fig 11(b) point is consistent, and minimize drops the 24 rotated copies.
const (
	wantKept    = 11
	wantDropped = 24
)

// prepare has nothing to do: the reason workload's verdicts are pinned.
func (b *reasonBench) prepare() error { return nil }

func (b *reasonBench) setup() error {
	b.d, b.fig, b.goals = redundantBank(b.seed), fig11Spec(b.seed), []byte(goalsText(b.seed))
	var err error
	if b.n, err = startServer(server.Options{}); err != nil {
		return err
	}
	b.c = newClient(b.n.url)
	if err := b.c.load(b.d); err != nil {
		return err
	}
	if _, err := b.c.call(http.MethodPut, "/datasets/"+fig11Dataset+"/constraints", []byte(b.fig), nil); err != nil {
		return fmt.Errorf("create %s: %w", fig11Dataset, err)
	}
	if s := b.op(0, nil); s.err != nil {
		return fmt.Errorf("cold round: %w", s.err)
	}
	return b.oracle
}

func (b *reasonBench) op(i int, tr *tracer) sample {
	var (
		impl struct{ Results []struct{ Verdict string } }
		cons struct{ Consistent bool }
		mini struct {
			Kept    int
			Dropped []json.RawMessage
		}
	)
	start := time.Now()
	x1, err := b.c.call(http.MethodPost, "/datasets/"+b.d.name+"/implication", b.goals, &impl)
	var x2, x3 exchange
	if err == nil {
		x2, err = b.c.call(http.MethodGet, "/datasets/"+fig11Dataset+"/consistency?seed=1", nil, &cons)
	}
	if err == nil {
		x3, err = b.c.call(http.MethodPost, "/datasets/"+b.d.name+"/minimize", nil, &mini)
	}
	s := sample{lat: time.Since(start), err: err, traced: tr != nil}
	if err != nil {
		return s
	}
	root := tr.add("op", -1, int64(i), x1.start, x3.end)
	for _, x := range []exchange{x1, x2, x3} {
		x.trace(tr, root, int64(i))
	}
	switch {
	case b.oracle != nil:
	case len(impl.Results) != 2 || impl.Results[0].Verdict != "implied" || impl.Results[1].Verdict != "not-implied":
		b.oracle = mismatch("round %d: implication verdicts %+v, want implied, not-implied", i, impl.Results)
	case !cons.Consistent:
		b.oracle = mismatch("round %d: the Fig 11(b) point answered inconsistent", i)
	case mini.Kept != wantKept || len(mini.Dropped) != wantDropped:
		b.oracle = mismatch("round %d: minimize kept %d and dropped %d, want %d and %d", i, mini.Kept, len(mini.Dropped), wantKept, wantDropped)
	}
	return s
}

func (b *reasonBench) drive(end time.Time, tr *tracer, sp *speed) ([]sample, []sample) {
	return closedLoop(end, func(i int) sample {
		sp.sample()
		return b.op(i, traceEveryOther(tr, i))
	}), nil
}

func (b *reasonBench) check(*report) error { return b.oracle }

func (b *reasonBench) teardown() error {
	if b.n == nil {
		return nil
	}
	b.c.close()
	err := b.n.stop()
	b.n = nil
	return err
}

func (b *reasonBench) replay() *replayInput {
	return &replayInput{bank: b.d, script: newChurn(b.seed, b.d.rows["checking"]).script(replayBatches),
		consistency: b.fig, goals: goalsText(b.seed),
		path: []string{"implication.proof_ms", "implication.refute_ms", "consistency.checking_ms", "implication.minimize_ms"}}
}
