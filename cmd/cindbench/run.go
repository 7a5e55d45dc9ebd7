package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times an untraced run sets the workload up; it
// reports the median, so one slow set-up does not read as a regression.
const setupReps = 3

// report is one run's outcome.
type report struct {
	workload          string
	trace, correct    bool
	attempted, failed int
	// metrics maps each metric to its value; samples and insufficient
	// qualify the percentile metrics.
	metrics      map[string]float64
	samples      map[string]int
	insufficient []string
	notes        []string

	recovery       []time.Duration
	fsyncsPerBatch float64
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// setPercentile records a percentile of n samples, marking it when fewer
// than minBeyond samples lie beyond it.
func (r *report) setPercentile(name string, v float64, ok bool, n int) {
	r.set(name, v)
	r.samples[name] = n
	if !ok {
		r.insufficient = append(r.insufficient, name)
	}
}

// runWorkload runs one workload for seconds of measurement and returns its
// end-to-end metrics, or with trace its per-layer metrics, writing the
// trace's spans to outDir.
func runWorkload(w *workload, seed int64, seconds float64, trace bool, outDir string) (*report, error) {
	r := &report{workload: w.name, trace: trace, correct: true,
		metrics: map[string]float64{}, samples: map[string]int{}}
	b := w.new(seed, seconds)
	defer b.teardown()
	if err := b.prepare(); err != nil {
		return nil, err
	}
	releaseMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	reps := setupReps
	if trace {
		reps = 1
	}
	var setups []float64
	setupSpeed := &speed{}
	for i := 0; i < reps; i++ {
		releaseMemory()
		for k := 0; k < 15; k++ {
			setupSpeed.sample()
		}
		start := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < reps-1 {
			if err := b.teardown(); err != nil {
				return nil, fmt.Errorf("%s teardown: %w", w.name, err)
			}
		}
	}
	measure := time.Duration(seconds * float64(time.Second))
	b.drive(time.Now().Add(measure/10), nil, nil) // warm-up, not counted

	var tr *tracer
	var gc *gcWatch
	if trace {
		tr, gc = newTracer(), watchGC()
	}
	runSpeed := &speed{}
	ops, aux := b.drive(time.Now().Add(measure), tr, runSpeed)
	if trace {
		gc.stop(r)
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	for _, s := range append(ops, aux...) {
		r.attempted++
		if s.err != nil {
			r.failed++
			if r.failed <= 3 {
				r.notes = append(r.notes, "failed: "+s.err.Error())
			}
		}
	}
	if err := b.check(r); err != nil {
		var oe *oracleError
		if !errors.As(err, &oe) {
			return nil, err
		}
		r.correct = false
		r.notes = append(r.notes, err.Error())
	}
	if len(r.recovery) > 0 {
		r.notes = append(r.notes, fmt.Sprintf("recovery_ms median of %d reopens: %.3f",
			len(r.recovery), ms(medianDuration(r.recovery))))
	}
	ok := succeeded(ops)
	if !trace {
		lat := sortedMillis(latencies(ok))
		p50, ok50 := percentile(lat, 500)
		tail, okTail := percentile(lat, w.tail)
		setup, scale, setupScale := median(setups), runSpeed.scale(), setupSpeed.scale()
		r.set("setup_s", setup*setupScale)
		r.setPercentile("p50_ms", p50*scale, ok50, len(lat))
		r.setPercentile("tail_ms", tail*scale, okTail, len(lat))
		r.notes = append(r.notes, fmt.Sprintf("as measured: setup_s %.4f p50_ms %.4f tail_ms %.4f; reference kernel %.4f ms in set-up, %.4f ms in the run, %.4f ms at reference speed",
			setup, p50, tail, ms(refKernel)/setupScale, ms(refKernel)/scale, ms(refKernel)))
		r.set("rss_peak_mb", rss)
		return r, nil
	}

	requests := sortedMillis(tr.durations("op"))
	p50, okReq := percentile(requests, 500)
	r.setPercentile("server.request_ms", p50, okReq, len(requests))
	heads := sortedMillis(tr.durations("headers"))
	fb, okFB := percentile(heads, 500)
	r.setPercentile("server.first_byte_ms", fb, okFB, len(heads))
	var traced, plain []time.Duration
	for _, s := range ok {
		if s.traced {
			traced = append(traced, s.lat)
		} else {
			plain = append(plain, s.lat)
		}
	}
	r.set("trace.overhead_pct", 100*(median(durationsFloat(traced))/median(durationsFloat(plain))-1))
	late := sortedMillis(lateness(ops))
	lp99, okLate := percentile(late, 990)
	r.setPercentile("gen.late_p99_ms", lp99, okLate, len(late))
	// Lateness is taken out of the open loop's latency, so it only distorts
	// a run once the generator falls a whole interval behind its schedule.
	if interval := ms(time.Second / churnRate); w.name == "delta-churn" && lp99 > interval {
		r.notes = append(r.notes, fmt.Sprintf("invalid: generator lateness p99 %.3f ms exceeds the %.0f ms batch interval", lp99, interval))
	}
	r.set("wal.fsyncs_per_batch", r.fsyncsPerBatch)

	in := b.replay()
	if err := replayLayers(in, tr, r.metrics); err != nil {
		var oe *oracleError
		if !errors.As(err, &oe) {
			return nil, err
		}
		r.correct = false
		r.notes = append(r.notes, err.Error())
	}
	self := p50
	for _, name := range in.path {
		v := r.metrics[name]
		if strings.HasSuffix(name, "_ms") {
			self -= v
		} else {
			self -= v / 1000 // the path's other metrics are in µs
		}
	}
	r.set("server.self_ms", self)
	for _, line := range selfTimes(tr) {
		r.notes = append(r.notes, line)
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	return r, nil
}

// releaseMemory returns freed memory to the OS, so the peak RSS of a run
// is that of one set-up and its traffic, not of garbage from the last.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func succeeded(ss []sample) []sample {
	var out []sample
	for _, s := range ss {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

func latencies(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

func lateness(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.late
	}
	return out
}

// selfTimes summarises the trace per span name: count, median duration and
// median self time, the part no child span covers.
func selfTimes(tr *tracer) []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := map[int][]span{}
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct{ dur, self []float64 }
	by := map[string]*acc{}
	for _, s := range tr.spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.dur = append(a.dur, ms(s.dur()))
		a.self = append(a.self, ms(selfTime(s, children[s.ID])))
	}
	names := make([]string, 0, len(by))
	for name := range by {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, name := range names {
		a := by[name]
		out[i] = fmt.Sprintf("span %s n=%d p50=%.4fms self_p50=%.4fms", name, len(a.dur), median(a.dur), median(a.self))
	}
	return out
}

// gcWatch samples the Go runtime while the traced operations run: the
// share of CPU the collector took, and the peak of live heap objects.
type gcWatch struct {
	start []metrics.Sample
	peak  uint64
	done  chan struct{}
	wg    sync.WaitGroup
}

var gcMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPU() []metrics.Sample {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, name := range gcMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func watchGC() *gcWatch {
	g := &gcWatch{start: readCPU(), done: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			g.peak = max(g.peak, heap[0].Value.Uint64())
			select {
			case <-g.done:
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

func (g *gcWatch) stop(r *report) {
	close(g.done)
	g.wg.Wait()
	end := readCPU()
	gcCPU := end[0].Value.Float64() - g.start[0].Value.Float64()
	total := end[1].Value.Float64() - g.start[1].Value.Float64()
	r.set("go.gc_cpu_fraction", gcCPU/max(total, 1e-9))
	r.set("go.heap_peak_mb", float64(g.peak)/(1<<20))
}

// resultLine is the JSON object a run prints as its last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one line per metric, `workload metric value unit`, then the
// notes, then the result line the benchmark contract reads.
func (r *report) print(out io.Writer) error {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	line := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, d.Name)
		}
		qual := ""
		if n, ok := r.samples[d.Name]; ok {
			qual = fmt.Sprintf(" (n=%d)", n)
		}
		for _, name := range r.insufficient {
			if name == d.Name {
				qual += " insufficient"
			}
		}
		fmt.Fprintf(out, "%s %s %v %s%s\n", r.workload, d.Name, v, d.Unit, qual)
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	fmt.Fprintf(out, "%s attempted %d failed %d correct %v\n", r.workload, r.attempted, r.failed, r.correct)
	for _, n := range r.notes {
		fmt.Fprintf(out, "%s note %s\n", r.workload, n)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
