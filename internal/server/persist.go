package server

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"time"

	cind "cind"

	"cind/internal/wal"
)

// Default snapshot cadence: a dataset is snapshotted once this many delta
// batches — or this much WAL growth, whichever trips first — have been
// appended since the last snapshot. Snapshots amortize recovery: boot
// loads the newest snapshot's CSVs and replays only the WAL tail behind
// it, so recovery time is bounded by the cadence, not the dataset's
// lifetime. The WAL itself is never truncated; losing every snapshot only
// slows recovery, never loses data.
const (
	defaultSnapshotBatches = 256
	defaultSnapshotBytes   = 8 << 20
)

// Options configures a Server. The zero value is the in-memory mode New
// serves: nothing touches disk and every dataset dies with the process.
type Options struct {
	// DataDir enables durable datasets: each gets a directory under it
	// holding the constraint spec, periodic CSV snapshots and a CRC-framed
	// WAL of applied delta batches, replayed on the next NewWithOptions.
	// Empty means in-memory.
	DataDir string
	// Fsync is the WAL sync policy (wal.SyncAlways, the zero value, makes
	// an acknowledged batch a durable batch).
	Fsync wal.Policy
	// SnapshotBatches and SnapshotBytes override the snapshot cadence
	// (0 = the defaults above). Mostly for tests and benchmarks.
	SnapshotBatches int
	SnapshotBytes   int64
	// Backend, when non-empty, runs every dataset's detection through a
	// database/sql backend instead of the in-memory engine. The value is a
	// "driver:dsn" spec as cind.OpenSQLBackend takes it; each dataset opens
	// its own handle from it, so "mem:" (the embedded zero-dependency
	// engine with a per-open private database) keeps datasets isolated.
	// Reports are identical to the in-memory engine's, violation for
	// violation, so streams and ?limit= behave the same.
	Backend string
}

// NewWithOptions returns a Server over opts. With a DataDir it opens the
// durability store, sweeps staging debris, and reconstructs every dataset
// found on disk — newest readable snapshot first, then the WAL tail behind
// it, each record decoded with the same validation as a live delta batch
// and applied through the same Checker.Apply path — before returning, so
// the first request served is indistinguishable from one a never-crashed
// process would answer. A torn WAL tail (kill -9 mid-append) is truncated
// at the last intact CRC frame, never replayed; genuine corruption of a
// spec or a CRC-valid record fails construction rather than serving a
// silently wrong dataset.
func NewWithOptions(opts Options) (*Server, error) {
	s := New()
	if opts.Backend != "" {
		// Validate the spec once up front so a bad -backend fails at boot,
		// not at the first dataset creation.
		probe, err := cind.OpenSQLBackend(opts.Backend)
		if err != nil {
			return nil, err
		}
		probe.Close()
		s.backend = opts.Backend
	}
	if opts.DataDir == "" {
		return s, nil
	}
	s.snapBatches = opts.SnapshotBatches
	if s.snapBatches <= 0 {
		s.snapBatches = defaultSnapshotBatches
	}
	s.snapBytes = opts.SnapshotBytes
	if s.snapBytes <= 0 {
		s.snapBytes = defaultSnapshotBytes
	}
	store, err := wal.OpenStore(opts.DataDir, opts.Fsync)
	if err != nil {
		return nil, err
	}
	s.store = store
	c := store.Counters()
	s.vars.Set("wal_appends", expvar.Func(func() any { return c.Appends.Load() }))
	s.vars.Set("wal_fsyncs", expvar.Func(func() any { return c.Fsyncs.Load() }))
	s.vars.Set("wal_replayed_batches", expvar.Func(func() any { return c.ReplayedBatches.Load() }))
	s.vars.Set("wal_torn_tails", expvar.Func(func() any { return c.TornTails.Load() }))
	s.vars.Set("snapshot_count", expvar.Func(func() any { return c.Snapshots.Load() }))
	s.vars.Set("snapshot_errors", s.nSnapErrs)
	s.vars.Set("last_recovery_ms", s.lastRecovery)

	start := time.Now()
	names, err := store.Datasets()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if err := s.recoverDataset(name); err != nil {
			s.Close()
			return nil, fmt.Errorf("server: recover dataset %q: %w", name, err)
		}
	}
	s.lastRecovery.Set(time.Since(start).Milliseconds())
	return s, nil
}

// Close releases the durability layer and every dataset's SQL backend
// handle: WAL handles are flushed per policy and closed. The in-memory
// registry keeps serving (use Drain + http.Server.Shutdown for request
// teardown); Close is for process exit and tests. In-memory servers need
// no Close, but it is safe.
func (s *Server) Close() error {
	s.mu.RLock()
	ds := make([]dataset, 0, len(s.datasets))
	for _, d := range s.datasets {
		ds = append(ds, d)
	}
	s.mu.RUnlock()
	var err error
	for _, d := range ds {
		if cerr := d.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// recoverDataset rebuilds one dataset from its directory: spec →
// ConstraintSet, newest readable snapshot → database, WAL tail →
// Checker.Apply, in log order.
func (s *Server) recoverDataset(name string) error {
	pd, err := s.store.Open(name)
	if err != nil {
		return err
	}
	set, err := cind.ParseConstraints(pd.Spec())
	if err != nil {
		pd.Close()
		return fmt.Errorf("constraint spec: %w", err)
	}
	d, err := s.newLocal(name, set, 0)
	if err != nil {
		pd.Close()
		return err
	}
	d.pd = pd
	db, snapOff, err := pd.LoadLatestSnapshot(func() *cind.Database { return cind.NewDatabase(set.Schema()) })
	if err != nil {
		pd.Close()
		d.closeBackend()
		return fmt.Errorf("snapshot: %w", err)
	}
	if db != nil {
		d.db = db
	}
	d.snapAtOffset = snapOff
	replayed := 0
	for _, rec := range pd.Records() {
		if rec.Offset < snapOff {
			continue
		}
		deltas, err := decodeDeltas(rec.Payload, set)
		if err != nil {
			// CRC-intact but undecodable records are not crash damage (a
			// torn tail was already truncated at open) — refuse to guess.
			pd.Close()
			d.closeBackend()
			return fmt.Errorf("wal record at offset %d: %w", rec.Offset, err)
		}
		if _, err := d.checker().Apply(context.Background(), deltas...); err != nil {
			pd.Close()
			d.closeBackend()
			return fmt.Errorf("replay wal record at offset %d: %w", rec.Offset, err)
		}
		replayed++
	}
	s.store.Counters().ReplayedBatches.Add(int64(replayed))
	if replayed > 0 {
		d.markIncremental()
	}
	s.installDataset(d)
	return nil
}

// persistDeltas appends one applied delta batch to the dataset's WAL in
// the PR-4 delta wire format (a JSON array of {"op","rel","tuple"}
// objects), chunked under the decode cap, then takes a snapshot if the
// cadence tripped. Caller holds writeMu; no-op in-memory.
func (d *local) persistDeltas(deltas []cind.Delta) error {
	if d.pd == nil || len(deltas) == 0 {
		return nil
	}
	for start := 0; start < len(deltas); start += maxDeltaBatch {
		end := min(start+maxDeltaBatch, len(deltas))
		payload, err := json.Marshal(encodeDeltas(deltas[start:end]))
		if err != nil {
			return err
		}
		if _, err := d.pd.Append(payload); err != nil {
			return err
		}
		d.sinceSnap++
	}
	d.maybeSnapshot()
	return nil
}

// persistInserts is persistDeltas for a direct (pre-checker) CSV load:
// the rows become insert deltas, the WAL's only record kind, so boot
// replay reconstructs CSV loads and delta batches through one path.
func (d *local) persistInserts(rel string, tuples []cind.Tuple) error {
	deltas := make([]cind.Delta, len(tuples))
	for i, t := range tuples {
		deltas[i] = cind.InsertDelta(rel, t)
	}
	return d.persistDeltas(deltas)
}

// maybeSnapshot snapshots the dataset when the cadence trips. Caller holds
// writeMu, which excludes every writer, so reading the database here is
// race-free; concurrent streams only read. Snapshot failure is counted and
// swallowed: the WAL already holds the batch durably, a missed snapshot
// only lengthens the next recovery.
func (d *local) maybeSnapshot() {
	if d.sinceSnap < d.snapBatches && d.pd.LogSize()-d.snapAtOffset < d.snapBytes {
		return
	}
	off := d.pd.LogSize()
	if err := d.pd.WriteSnapshot(d.db, off); err != nil {
		d.snapErrs.Add(1)
		return
	}
	d.sinceSnap = 0
	d.snapAtOffset = off
}

// NewHTTPServer wires s into an http.Server hardened for the open
// internet: BaseContext feeds Drain-cancellation to every request, and the
// header-read and keep-alive idle timeouts stop a slow or stalled client
// from pinning a connection forever. Request bodies and response streams
// stay unbounded — violation streams are legitimately long-lived and are
// cancelled per-request (client disconnect or Drain), so ReadTimeout and
// WriteTimeout remain zero deliberately.
func NewHTTPServer(s *Server) *http.Server {
	return &http.Server{
		Handler:           s,
		BaseContext:       s.BaseContext,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
