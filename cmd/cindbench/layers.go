package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	cind "cind"

	"cind/internal/consistency"
	"cind/internal/depgraph"
	"cind/internal/detect"
	"cind/internal/implication"
	"cind/internal/shard"
	"cind/internal/stream"
	"cind/internal/wal"
)

// layerReps is how many times the replay times each call; it reports the
// median.
const layerReps = 5

// layers is the in-process half of the traced pass: it replays the
// workload's inputs through each module's public functions, with a span
// around every call, and records the per-layer metrics into m.
type layers struct {
	ctx context.Context
	in  *replayInput
	tr  *tracer
	m   map[string]float64
}

func replayLayers(in *replayInput, tr *tracer, m map[string]float64) error {
	l := &layers{ctx: context.Background(), in: in, tr: tr, m: m}
	for _, step := range []struct {
		name string
		run  func(root int) error
	}{
		{"detect", l.detect},
		{"stream", l.stream},
		{"shard", l.shard},
		{"session", l.session},
		{"wal", l.wal},
		{"consistency", l.consistency},
		{"implication", l.implication},
	} {
		runtime.GC()
		root := tr.open("layer."+step.name, -1, 0)
		err := step.run(root)
		tr.close(root)
		if err != nil {
			return fmt.Errorf("%s layer: %w", step.name, err)
		}
	}
	return nil
}

// repeat times f layerReps times as spans called name and returns the
// median duration.
func (l *layers) repeat(name string, root int, f func() error) (time.Duration, error) {
	var ds []time.Duration
	for r := 0; r < layerReps; r++ {
		var err error
		ds = append(ds, l.tr.time(name, root, int64(r), func() { err = f() }))
		if err != nil {
			return 0, err
		}
	}
	return medianDuration(ds), nil
}

func medianDuration(ds []time.Duration) time.Duration {
	return time.Duration(median(durationsFloat(ds)))
}

func durationsFloat(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocs reports the heap allocations and bytes f makes.
func allocs(f func() error) (n, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// detect times Checker.Detect and Checker.Violations before any session
// exists: the batch engine a scan of a never-written dataset runs.
func (l *layers) detect(root int) error {
	set, db, err := loadDatabase(l.in.bank)
	if err != nil {
		return err
	}
	chk, err := cind.NewChecker(db, set)
	if err != nil {
		return err
	}
	var rep *cind.Report
	run, err := l.repeat("detect.run", root, func() (err error) {
		rep, err = chk.Detect(l.ctx)
		return err
	})
	if err != nil {
		return err
	}
	each, err := l.repeat("detect.each", root, func() error { return drain(l.ctx, chk, -1) })
	if err != nil {
		return err
	}
	first, err := l.repeat("detect.first", root, func() error { return drain(l.ctx, chk, 1) })
	if err != nil {
		return err
	}
	n, b, err := allocs(func() (err error) {
		_, err = chk.Detect(l.ctx)
		return err
	})
	if err != nil {
		return err
	}
	tuples := 0
	for _, rel := range set.Schema().Relations() {
		tuples += db.Instance(rel.Name()).Len()
	}
	l.m["detect.run_ms"] = ms(run)
	l.m["detect.each_ms"] = ms(each)
	l.m["detect.first_ms"] = ms(first)
	l.m["detect.tuples"] = float64(tuples)
	l.m["detect.violations"] = float64(rep.Total())
	l.m["detect.cfd_violations"] = float64(len(rep.CFD))
	l.m["detect.cind_violations"] = float64(len(rep.CIND))
	l.m["detect.violations_per_tuple"] = float64(rep.Total()) / float64(tuples)
	l.m["detect.allocs_per_run"] = float64(n)
	l.m["detect.alloc_mb_per_run"] = float64(b) / (1 << 20)
	return nil
}

// drain ranges over chk.Violations, stopping after limit violations when
// limit is positive.
func drain(ctx context.Context, chk *cind.Checker, limit int) error {
	n := 0
	for _, err := range chk.Violations(ctx) {
		if err != nil {
			return err
		}
		if n++; n == limit {
			break
		}
	}
	return nil
}

// stream times the batching stream.Writer into a buffer and stream.Decoder
// over the bytes, for each encoding a workload's scans use.
func (l *layers) stream(root int) error {
	set, db, err := loadDatabase(l.in.bank)
	if err != nil {
		return err
	}
	chk, err := cind.NewChecker(db, set)
	if err != nil {
		return err
	}
	rep, err := chk.Detect(l.ctx)
	if err != nil {
		return err
	}
	vs := rep.Violations()
	n := max(len(vs), 1)
	for _, enc := range []stream.Encoding{stream.NDJSON, stream.Binary} {
		var buf bytes.Buffer
		encode := func() error {
			buf.Reset()
			w := stream.NewWriter(&buf, nil, enc, stream.Options{})
			for _, v := range vs {
				w.Send(v)
			}
			return w.Close()
		}
		decode := func() error {
			got, err := stream.DecodeAll(bytes.NewReader(buf.Bytes()), enc)
			if err == nil && len(got) != len(vs) {
				err = mismatch("%s round trip decoded %d of %d violations", enc, len(got), len(vs))
			}
			return err
		}
		prefix := "stream." + enc.String() + "."
		encT, err := l.repeat(prefix+"encode", root, encode)
		if err != nil {
			return err
		}
		decT, err := l.repeat(prefix+"decode", root, decode)
		if err != nil {
			return err
		}
		a, _, err := allocs(func() error {
			if err := encode(); err != nil {
				return err
			}
			return decode()
		})
		if err != nil {
			return err
		}
		l.m[prefix+"encode_ms"] = ms(encT)
		l.m[prefix+"decode_ms"] = ms(decT)
		l.m[prefix+"bytes_per_violation"] = float64(buf.Len()) / float64(n)
		l.m[prefix+"allocs_per_violation"] = float64(a) / float64(n)
	}
	return nil
}

// shards is how many shards the router of scan-routed fans out to.
const shards = 2

// sliceSource replays decoded violations as a shard.Source.
type sliceSource struct {
	vs []stream.Violation
	i  int
}

func (s *sliceSource) Next() (stream.Violation, error) {
	if s.i == len(s.vs) {
		return stream.Violation{}, io.EOF
	}
	s.i++
	return s.vs[s.i-1], nil
}

// shard replays the router's read path: split the instance by the plan,
// scatter — every shard, concurrently, streams its seeded session's report
// through the binary encoder, as the router's shards do — then decode each
// stream and k-way merge them back into the single-node order.
func (l *layers) shard(root int) error {
	set, db, err := loadDatabase(l.in.bank)
	if err != nil {
		return err
	}
	plan, err := shard.NewPlan(set, shards)
	if err != nil {
		return err
	}
	var order *shard.Order
	var parts []*cind.Database
	split, err := l.repeat("shard.split", root, func() error {
		order = shard.NewOrder(plan)
		parts = make([]*cind.Database, shards)
		for i := range parts {
			parts[i] = cind.NewDatabase(set.Schema())
		}
		for _, rel := range set.Schema().Relations() {
			for _, t := range db.Instance(rel.Name()).Tuples() {
				order.Insert(rel.Name(), t)
				if sh := plan.ShardOf(rel.Name(), t); sh >= 0 {
					parts[sh].Insert(rel.Name(), t)
				} else {
					for _, p := range parts {
						p.Insert(rel.Name(), t)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	checkers := make([]*cind.Checker, shards)
	for i, p := range parts {
		if checkers[i], err = cind.NewChecker(p, set, cind.WithParallelism(1)); err != nil {
			return err
		}
		if _, err := checkers[i].Apply(l.ctx); err != nil {
			return err
		}
	}

	bufs := make([]bytes.Buffer, shards)
	var maxs, means []float64
	for r := 0; r < layerReps; r++ {
		scatter := l.tr.open("shard.scatter", root, int64(r))
		ds := make([]time.Duration, shards)
		errs := make([]error, shards)
		var wg sync.WaitGroup
		for i := range checkers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ds[i] = l.tr.time("shard.detect", scatter, int64(r), func() {
					bufs[i].Reset()
					w := stream.NewWriter(&bufs[i], nil, stream.Binary, stream.Options{})
					for v, err := range checkers[i].Violations(l.ctx) {
						if err != nil {
							errs[i] = err
							break
						}
						w.Send(v)
					}
					if err := w.Close(); errs[i] == nil {
						errs[i] = err
					}
				})
			}()
		}
		wg.Wait()
		l.tr.close(scatter)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		top, sum := time.Duration(0), time.Duration(0)
		for _, d := range ds {
			top, sum = max(top, d), sum+d
		}
		maxs = append(maxs, ms(top))
		means = append(means, ms(sum)/shards)
	}

	streams := make([][]stream.Violation, shards)
	dec, err := l.repeat("shard.decode", root, func() (err error) {
		for i := range bufs {
			if streams[i], err = stream.DecodeAll(bytes.NewReader(bufs[i].Bytes()), stream.Binary); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var merged int64
	merge, err := l.repeat("shard.merge", root, func() (err error) {
		sources := make([]shard.Source, shards)
		for i := range streams {
			sources[i] = &sliceSource{vs: streams[i]}
		}
		merged, err = shard.Merge(sources,
			func(i int, v *stream.Violation) (detect.MergeKey, bool, error) {
				if !plan.Keep(i, v.Constraint) {
					return detect.MergeKey{}, false, nil
				}
				k, err := order.Key(v)
				return k, true, err
			},
			func(*stream.Violation) bool { return true })
		return err
	})
	if err != nil {
		return err
	}
	if want := l.m["detect.violations"]; float64(merged) != want {
		return mismatch("shard merge emitted %d violations, single-node detect %v", merged, want)
	}
	l.m["shard.split_ms"] = ms(split)
	l.m["shard.detect_max_ms"] = median(maxs)
	l.m["shard.detect_mean_ms"] = median(means)
	l.m["shard.skew"] = median(maxs) / median(means)
	l.m["shard.decode_ms"] = ms(dec)
	l.m["shard.merge_ms"] = ms(merge)
	l.m["shard.merged_violations"] = float64(merged)
	return nil
}

// session times the incremental session: the seeding pass, every batch of
// the script through Checker.Apply, report reads between writes, and the
// same writes with a concurrent reader at delta-churn's read rate.
func (l *layers) session(root int) error {
	set, db, err := loadDatabase(l.in.bank)
	if err != nil {
		return err
	}
	chk, err := cind.NewChecker(db, set)
	if err != nil {
		return err
	}
	seed := l.tr.time("session.seed", root, 0, func() { _, err = chk.Apply(l.ctx) })
	if err != nil {
		return err
	}
	var applies, reads []time.Duration
	changes, deltas := 0, 0
	for i, batch := range l.in.script {
		ds := engineDeltas(batch)
		var diff *cind.ReportDiff
		applies = append(applies, l.tr.time("session.apply", root, int64(i), func() { diff, err = chk.Apply(l.ctx, ds...) }))
		if err != nil {
			return err
		}
		changes += diff.Added.Total() + diff.Removed.Total()
		deltas += len(ds)
		if i%100 == 99 {
			reads = append(reads, l.tr.time("session.report", root, int64(i), func() { err = drain(l.ctx, chk, -1) }))
			if err != nil {
				return err
			}
		}
	}
	under, err := l.underRead(root)
	if err != nil {
		return err
	}
	sorted := sortedMillis(applies)
	p50, _ := percentile(sorted, 500)
	p99, _ := percentile(sorted, 990)
	underSorted := sortedMillis(under)
	u50, _ := percentile(underSorted, 500)
	l.m["session.seed_ms"] = ms(seed)
	l.m["session.apply_us_p50"] = p50 * 1000
	l.m["session.apply_us_p99"] = p99 * 1000
	l.m["session.apply_under_read_us_p50"] = u50 * 1000
	l.m["session.report_ms"] = ms(medianDuration(reads))
	l.m["session.changes_per_delta"] = float64(changes) / float64(max(deltas, 1))
	return nil
}

// underRead applies the script's first second of batches at delta-churn's
// rate on a fresh session while a reader drains the report
// every readEvery.
func (l *layers) underRead(root int) ([]time.Duration, error) {
	set, db, err := loadDatabase(l.in.bank)
	if err != nil {
		return nil, err
	}
	chk, err := cind.NewChecker(db, set)
	if err != nil {
		return nil, err
	}
	if _, err := chk.Apply(l.ctx); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(readEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			l.tr.time("session.read", root, 0, func() {
				if err := drain(l.ctx, chk, -1); err != nil && readErr == nil {
					readErr = err
				}
			})
		}
	}()
	var out []time.Duration
	batches := l.in.script[:min(len(l.in.script), churnRate)]
	start := time.Now()
	for i, batch := range batches {
		realClock{}.SleepUntil(start.Add(time.Duration(i) * time.Second / churnRate))
		ds := engineDeltas(batch)
		out = append(out, l.tr.time("session.apply_under_read", root, int64(i), func() { _, err = chk.Apply(l.ctx, ds...) }))
		if err != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	if err == nil {
		err = readErr
	}
	return out, err
}

// wal times the durability layer the way the server drives it, with the
// sync split out: a SyncOff log, then Append and Sync per script batch,
// snapshots of the final state, and recovery's read side — opening the
// dataset (which decodes the log) and loading the latest snapshot.
func (l *layers) wal(root int) error {
	set, db, err := loadDatabase(l.in.bank)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "cindbench-layer-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := wal.OpenStore(dir, wal.Policy{Mode: wal.SyncOff})
	if err != nil {
		return err
	}
	name := l.in.bank.name
	if err := store.Create(name, l.in.bank.spec); err != nil {
		return err
	}
	ds, err := store.Open(name)
	if err != nil {
		return err
	}
	defer ds.Close()
	var appends, syncs []time.Duration
	userBytes := 0
	for i, batch := range l.in.script {
		payload, err := json.Marshal(wireDeltas(batch))
		if err != nil {
			return err
		}
		userBytes += len(payload)
		appends = append(appends, l.tr.time("wal.append", root, int64(i), func() { _, err = ds.Append(payload) }))
		if err != nil {
			return err
		}
		syncs = append(syncs, l.tr.time("wal.fsync", root, int64(i), func() { err = ds.Sync() }))
		if err != nil {
			return err
		}
		for _, dl := range batch {
			if t := cind.Consts(dl.tuple...); dl.insert {
				db.Insert("checking", t)
			} else {
				db.Delete("checking", t)
			}
		}
	}
	logSize := ds.LogSize()
	before, err := dirBytes(dir)
	if err != nil {
		return err
	}
	if err := ds.WriteSnapshot(db, logSize); err != nil {
		return err
	}
	after, err := dirBytes(dir)
	if err != nil {
		return err
	}
	snap, err := l.repeat("wal.snapshot", root, func() error { return ds.WriteSnapshot(db, logSize) })
	if err != nil {
		return err
	}
	if err := ds.Close(); err != nil {
		return err
	}
	fresh := func() *cind.Database { return cind.NewDatabase(set.Schema()) }
	replay, err := l.repeat("wal.replay", root, func() error {
		re, err := store.Open(name)
		if err != nil {
			return err
		}
		defer re.Close()
		if len(re.Records()) != len(l.in.script) {
			return mismatch("reopened WAL holds %d records, %d were appended", len(re.Records()), len(l.in.script))
		}
		_, _, err = re.LoadLatestSnapshot(fresh)
		return err
	})
	if err != nil {
		return err
	}
	a, s := sortedMillis(appends), sortedMillis(syncs)
	a50, _ := percentile(a, 500)
	s50, _ := percentile(s, 500)
	s99, _ := percentile(s, 990)
	l.m["wal.append_us_p50"] = a50 * 1000
	l.m["wal.fsync_us_p50"] = s50 * 1000
	l.m["wal.fsync_us_p99"] = s99 * 1000
	l.m["wal.snapshot_ms"] = ms(snap)
	l.m["wal.replay_ms"] = ms(replay)
	l.m["wal.bytes_per_user_byte"] = float64(logSize) / float64(max(userBytes, 1))
	l.m["wal.snapshot_bytes_per_wal_byte"] = float64(after-before) / float64(max(logSize, 1))
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// consistency times Figure 7's preProcessing alone and Figure 9's combined
// Checking on the Σ the workload's consistency request decides, and counts
// how many of ten seeds preProcessing decides by itself.
func (l *layers) consistency(root int) error {
	set, err := cind.ParseConstraints(l.in.consistency)
	if err != nil {
		return err
	}
	sch, cfds, cinds := set.Schema(), set.CFDs(), set.CINDs()
	pre := func(seed int64) (consistency.PreVerdict, error) {
		v, _, err := consistency.PreProcessingContext(l.ctx, depgraph.New(sch, cfds, cinds), consistency.Options{Seed: seed})
		return v, err
	}
	preT, err := l.repeat("consistency.preprocess", root, func() error {
		_, err := pre(1)
		return err
	})
	if err != nil {
		return err
	}
	checkT, err := l.repeat("consistency.checking", root, func() error {
		ans, err := set.CheckConsistencyContext(l.ctx, cind.CheckOptions{Seed: 1})
		if err == nil && !ans.Consistent {
			err = mismatch("Checking found no witness for a consistent Σ")
		}
		return err
	})
	if err != nil {
		return err
	}
	decided := 0
	for seed := int64(1); seed <= 10; seed++ {
		v, err := pre(seed)
		if err != nil {
			return err
		}
		if v != consistency.PreUnknown {
			decided++
		}
	}
	l.m["consistency.preprocess_ms"] = ms(preT)
	l.m["consistency.checking_ms"] = ms(checkT)
	l.m["consistency.preprocess_decided"] = float64(decided) / 10
	return nil
}

// implication times the inference-system proof of Example 3.3, the chase
// refutation of its converse, and Minimize, on the bank dataset's Σ.
func (l *layers) implication(root int) error {
	set, err := cind.ParseConstraints(l.in.bank.spec)
	if err != nil {
		return err
	}
	prefix := cind.MarshalSpec(&cind.Spec{Schema: set.Schema()}) + "\n"
	spec, err := cind.ParseSpec(prefix + l.in.goals)
	if err != nil {
		return err
	}
	decide := func(goal *cind.CIND, want implication.Verdict) func() error {
		return func() error {
			out, err := implication.DecideContext(l.ctx, set.Schema(), set.CINDs(), goal, implication.Options{})
			if err == nil && out.Verdict != want {
				err = mismatch("goal %s decided %v, want %v", goal.ID, out.Verdict, want)
			}
			return err
		}
	}
	proof, err := l.repeat("implication.proof", root, decide(spec.CINDs[0], implication.Implied))
	if err != nil {
		return err
	}
	refute, err := l.repeat("implication.refute", root, decide(spec.CINDs[1], implication.NotImplied))
	if err != nil {
		return err
	}
	var res *cind.MinimizeResult
	minimize, err := l.repeat("implication.minimize", root, func() (err error) {
		res, err = set.Minimize(l.ctx, cind.ImplicationOptions{})
		return err
	})
	if err != nil {
		return err
	}
	l.m["implication.proof_ms"] = ms(proof)
	l.m["implication.refute_ms"] = ms(refute)
	l.m["implication.minimize_ms"] = ms(minimize)
	l.m["implication.minimize_dropped"] = float64(len(res.Dropped))
	return nil
}
