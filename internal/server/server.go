// Package server implements cindserve: a multi-dataset constraint-checking
// HTTP service over the cind.Checker handle — the serving layer the paper's
// closing goal (applying CFD/CIND detection to real-life data pipelines)
// asks for, built on the stdlib only.
//
// Each named dataset pairs a database instance with a schema-validated
// ConstraintSet and a lazily-built Checker. The endpoints map one-to-one
// onto the Checker surface:
//
//	PUT  /datasets/{name}/constraints   constraint spec text → ParseConstraints
//	PUT  /datasets/{name}?relation=R    CSV body → LoadCSV into relation R
//	GET  /datasets/{name}/violations    violation stream ← Checker.Violations(ctx);
//	                                    Accept-negotiated encoding (NDJSON default,
//	                                    JSON array, CRC-framed binary — see
//	                                    internal/stream)
//	POST /datasets/{name}/deltas        delta batch → Checker.Apply, returns the Diff
//	POST /datasets/{name}/repair        Checker.Repair, returns the change log
//	POST /datasets/{name}/implication   cind clauses → ConstraintSet.ImplyAll:
//	                                    verdict + proof / counterexample per goal
//	GET  /datasets/{name}/consistency   ConstraintSet.CheckConsistencyContext
//	POST /datasets/{name}/minimize      ConstraintSet.Minimize: minimized spec
//	                                    text + certificate per dropped constraint
//	GET  /datasets/{name}               dataset info (tuple counts, mode)
//	GET  /datasets                      dataset names
//	DELETE /datasets/{name}             drop the dataset
//	GET  /healthz                       liveness
//	GET  /metrics                       this server's expvar metric map
//	GET  /debug/vars                    process-wide expvar
//
// NewRouter serves the same endpoints, through the same handlers, over a
// fleet of shard servers instead of local Checkers: its datasets are
// routed (router.go). Only the per-dataset mechanics differ — behind the
// dataset interface — plus /healthz and /metrics, which fan out to the
// fleet. The router holds every dataset's full constraint set, so it
// answers the reasoning endpoints itself; each shard holds only the
// constraints it owns.
//
// The reasoning endpoints (implication, consistency, minimize) run the
// Section 3 / Section 5 engines with the request context: a client
// disconnect — or Drain — cancels the case-split branches, the chase and
// the SAT decision loop cooperatively, and a cancelled computation answers
// 503 (retryable server condition), mirroring the deltas/repair
// convention. No reasoning goroutine outlives its request.
//
// The violations stream is backed by Checker.Violations and served through
// internal/stream: the Accept header selects the encoding (NDJSON stays the
// default; application/json buys one parseable document,
// application/x-cind-frames the CRC-framed binary batches), and a
// per-stream stream.Writer encodes on its own goroutine and flushes by
// size or deadline (32KiB / 50ms, first violation eagerly), so neither
// the detection hot loop nor a router's merge loop blocks on encoding or
// the socket. A local dataset sends engine violations, a routed one the
// merged wire violations; the two writers differ only in that
// conversion. Every encoding ends with an explicit terminal record — the
// NDJSON trailer line {"done":true,"count":N}, the JSON document's "done"
// member, the binary 'Z' frame — or, after a cancellation, a terminal
// error record, so a complete stream is always distinguishable from a
// truncated one. A client disconnect cancels the request context, which
// stops the engine's worker pool; the handler does not return until every
// worker and the encoder have exited, so a broken connection leaks no
// goroutines. ?limit=n ends the stream after n violations by breaking out
// of the iterator — the documented equivalent of WithLimit(n) on the
// stream, which the differential tests pin; ?limit=0 (like WithLimit(0))
// streams unlimited.
//
// A version's report never changes, so an unlimited read of a recurring
// version carries an ETag (the dataset instance, the epoch of the version
// in the dataset's body memo, the encoding) and Vary: Accept, and a read
// whose If-None-Match names the current tag answers 304 Not Modified
// with no body. From a version's third unlimited read in an encoding on,
// the server writes the body it kept from the second (memo.go). Limited
// and SQL-backend reads carry no tag and ignore If-None-Match.
//
// Concurrency follows the Checker's existing lock discipline: streams and
// repair take the checker's read lock (or, after the first Apply, walk an
// immutable report snapshot lock-free), delta batches its write lock. The
// handlers add no locking beyond the per-dataset registry: the registry
// RWMutex guards the name → dataset map, and each dataset's mutex guards
// only configuration (lazy checker construction, CSV loads) — never a
// stream in flight.
//
// Graceful shutdown: wire BaseContext into the http.Server and call Drain
// on shutdown; every in-flight stream observes the cancelled base context,
// emits a final {"error": ...} line and ends, letting Shutdown complete.
package server

import (
	"bytes"
	"context"
	"database/sql"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"

	cind "cind"

	"cind/internal/stream"
	"cind/internal/wal"
)

// Request-body caps — the budget-constrained serving bounds. CSV loads are
// the bulk path; constraint specs and delta batches are metadata-sized.
const (
	maxConstraintsBody = 4 << 20   // 4 MiB of constraint text
	maxCSVBody         = 256 << 20 // 256 MiB per CSV upload
	maxDeltasBody      = 32 << 20  // 32 MiB per delta batch
	maxRepairBody      = 1 << 20   // 1 MiB of repair options
	maxGoalsBody       = 4 << 20   // 4 MiB of implication goal clauses
)

// dataset is the seam between the handlers and the two ways a dataset is
// served: *local, a Checker over an in-process database (in memory,
// durable or SQL-backed), and *routed, a shard plan and order tracker over
// a fleet of shard servers. Its methods are only the operations whose
// mechanics differ; the handlers own everything else.
//
// A method's error answers through fail: a *statusError carries its own
// status, a cancellation is 503. From loadCSV and applyDeltas a
// *notDurableError instead means the mutation is live but not logged.
type dataset interface {
	meta() *datasetMeta
	// loadCSV loads CSV rows (header required) into relation rel.
	loadCSV(ctx context.Context, rel string, r io.Reader) error
	// applyDeltas applies one atomic batch and returns its net report
	// change, with Durable set when the dataset persists mutations.
	applyDeltas(ctx context.Context, deltas []cind.Delta) (diffWire, error)
	// relationSizes reports per-relation tuple counts and whether the
	// dataset serves incrementally, never queueing behind a writer.
	relationSizes() (map[string]int, bool)
	// violations opens the dataset's violation stream for rd.
	violations(ctx context.Context, rd violationRead) (violationStream, error)
	repair(ctx context.Context, opts cind.RepairOptions) (*cind.RepairResult, error)
	// remove deletes the dataset's state wherever it lives; the handler
	// unregisters the dataset only once remove succeeds.
	remove(ctx context.Context) error
	// close releases the dataset's handles once it is displaced or the
	// server closes.
	close() error
}

// datasetMeta is what every dataset carries, whatever serves it: its name
// and the immutable constraint set that delta validation, info and the
// reasoning endpoints read.
type datasetMeta struct {
	name string
	set  *cind.ConstraintSet
	// goalPrefix is the schema preamble implication goals parse under,
	// rendered once (the set is immutable).
	goalPrefix string
}

func newMeta(name string, set *cind.ConstraintSet) datasetMeta {
	return datasetMeta{name: name, set: set, goalPrefix: goalPrefix(set)}
}

func (m *datasetMeta) meta() *datasetMeta { return m }

// violationRead is what a GET /violations asks for: the encoding, the
// limit (0 = all) and the client's If-None-Match header.
type violationRead struct {
	enc         stream.Encoding
	limit       int
	ifNoneMatch string
}

// violationStream is an opened violation stream. etag is its entity tag,
// "" when the read carries none. run drives the mode's hot loop into a
// writer over out until the stream ends or the read's limit was reached,
// and returns the writer still open, the number of violations handed to
// it and the terminal error ("" for a clean end). release frees what
// opening the stream took.
type violationStream interface {
	etag() string
	run(out io.Writer, fl stream.Flusher) (sw streamWriter, sent int64, endErr string)
	release()
}

// streamWriter is the end of a stream.Writer, of either instantiation,
// that the handler drives once the hot loop is done.
type streamWriter interface {
	Close() error
	CloseError(msg string) error
	Count() int64
}

// local serves a dataset from this process: one database instance with its
// constraint set and the lazily-built Checker serving it. db and parallel
// are immutable after construction (re-PUTting constraints swaps in a
// whole new dataset); mu guards chk construction and every direct database
// write (CSV loads), so raw reads of db elsewhere also hold mu. Streams
// never hold mu — they rely on the Checker's own lock discipline.
//
// In durable mode every mutation additionally holds writeMu for the whole
// {apply, WAL append, maybe snapshot} sequence, so the WAL's record order
// is exactly the order mutations were applied in — the invariant boot
// replay depends on. writeMu is ordered outside mu and outside the
// checker's locks; nothing that holds writeMu takes the registry lock.
type local struct {
	datasetMeta

	db       *cind.Database
	parallel int

	mu          sync.Mutex
	chk         *cind.Checker
	incremental bool           // an Apply-path write has succeeded
	lastSizes   map[string]int // most recent tuple-count snapshot

	// sqlDB is the dataset's SQL detection backend (nil = in-memory
	// engine): opened from Options.Backend at dataset creation, handed to
	// the checker via WithSQLBackend, closed when the dataset is replaced
	// or deleted. Each dataset gets its own handle, so "mem:" backends are
	// private per dataset.
	sqlDB *sql.DB

	// Durable-mode state, all guarded by writeMu; store and pd are nil
	// in-memory.
	writeMu      sync.Mutex
	store        *wal.Store
	pd           *wal.Dataset
	snapBatches  int   // snapshot after this many WAL appends…
	snapBytes    int64 // …or this much WAL growth, whichever first
	sinceSnap    int   // WAL appends since the last snapshot
	snapAtOffset int64 // WAL end offset the last snapshot covered
	snapErrs     *expvar.Int

	memo *bodyMemo[cind.Version] // stream bodies kept for the latest version
}

// checker returns the dataset's Checker, building it on first use.
func (d *local) checker() *cind.Checker {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkerLocked()
}

func (d *local) checkerLocked() *cind.Checker {
	if d.chk == nil {
		opts := []cind.CheckerOption{cind.WithParallelism(d.parallel)}
		if d.sqlDB != nil {
			opts = append(opts, cind.WithSQLBackend(d.sqlDB))
		}
		// The set was parsed against this very schema, so NewChecker's
		// revalidation cannot fail.
		chk, err := cind.NewChecker(d.db, d.set, opts...)
		if err != nil {
			panic("server: checker over own schema: " + err.Error())
		}
		d.chk = chk
	}
	return d.chk
}

// Server is the HTTP service: a registry of named datasets plus the
// handler mux and per-server expvar metrics. It implements http.Handler.
// New serves local datasets, NewRouter routed ones.
type Server struct {
	mu       sync.RWMutex
	datasets map[string]dataset

	// create builds a dataset of this server's mode, ready to install:
	// createLocal on a single node, fleet.create on a router.
	create func(ctx context.Context, name string, set *cind.ConstraintSet, parallel int) (dataset, error)

	// store is the durability layer (nil = in-memory mode): per-dataset
	// directories under Options.DataDir holding the constraint spec, CSV
	// snapshots and a CRC-framed WAL of applied delta batches. See
	// internal/wal and the persistence methods in persist.go.
	store       *wal.Store
	snapBatches int
	snapBytes   int64

	// backend, when non-empty, is the Options.Backend detection spec
	// ("driver:dsn"): every dataset runs its checker through a SQL backend
	// opened from it instead of the in-memory detection engine.
	backend string

	mux *http.ServeMux

	// baseCtx is cancelled by Drain; every violations stream is bound to
	// it (directly, and via http.Server.BaseContext when wired), so an
	// orderly shutdown ends in-flight streams instead of hanging on them.
	baseCtx context.Context
	drainFn context.CancelFunc

	vars          *expvar.Map
	nDatasets     *expvar.Int
	nRequests     *expvar.Int
	nStreamed     *expvar.Int // violations streamed (any encoding), lifetime
	nActiveStream *expvar.Int // streams currently open
	nNotModified  *expvar.Int // violation reads answered 304, lifetime
	memos         *memoSource // its datasets' body memos and their counters
	nDeltas       *expvar.Int // deltas applied, lifetime
	nImplication  *expvar.Int // implication goals decided, lifetime
	nConsistency  *expvar.Int // consistency checks run, lifetime
	nMinimize     *expvar.Int // minimize runs, lifetime
	nSnapErrs     *expvar.Int // best-effort snapshots that failed
	nWALErrs      *expvar.Int // mutations applied but not durably logged
	lastRecovery  *expvar.Int // last boot recovery duration, milliseconds

	// latency holds one histogram per instrumented endpoint, published as
	// "latency_us". Populated at construction, read-only after.
	latency map[string]*latencyHistogram
}

// New returns a ready-to-serve in-memory Server with no datasets. For
// durable datasets (WAL + snapshot persistence under a data directory) use
// NewWithOptions.
func New() *Server {
	s := newServer()
	s.create = s.createLocal
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// newServer returns a Server with the shared dataset routes registered;
// the constructors add the dataset factory, /healthz and /metrics.
func newServer() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		datasets:      make(map[string]dataset),
		baseCtx:       ctx,
		drainFn:       cancel,
		vars:          new(expvar.Map).Init(),
		nDatasets:     new(expvar.Int),
		nRequests:     new(expvar.Int),
		nStreamed:     new(expvar.Int),
		nActiveStream: new(expvar.Int),
		nNotModified:  new(expvar.Int),
		memos:         newMemoSource(),
		nDeltas:       new(expvar.Int),
		nImplication:  new(expvar.Int),
		nConsistency:  new(expvar.Int),
		nMinimize:     new(expvar.Int),
		nSnapErrs:     new(expvar.Int),
		nWALErrs:      new(expvar.Int),
		lastRecovery:  new(expvar.Int),
		latency:       make(map[string]*latencyHistogram),
	}
	s.vars.Set("datasets", s.nDatasets)
	s.vars.Set("requests", s.nRequests)
	s.vars.Set("violations_streamed", s.nStreamed)
	s.vars.Set("active_streams", s.nActiveStream)
	s.vars.Set("stream_not_modified", s.nNotModified)
	s.vars.Set("stream_memo_hits", s.memos.hits)
	s.vars.Set("stream_memo_fills", s.memos.fills)
	s.vars.Set("stream_memo_bytes", s.memos.bytes)
	s.vars.Set("deltas_applied", s.nDeltas)
	s.vars.Set("implication_checks", s.nImplication)
	s.vars.Set("consistency_checks", s.nConsistency)
	s.vars.Set("minimize_runs", s.nMinimize)
	s.vars.Set("wal_append_errors", s.nWALErrs)
	s.vars.Set("latency_us", expvar.Func(s.latencySnapshot))

	mux := http.NewServeMux()
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /datasets", s.instrument("list", s.handleList))
	mux.HandleFunc("PUT /datasets/{name}/constraints", s.instrument("put_constraints", s.handlePutConstraints))
	mux.HandleFunc("PUT /datasets/{name}", s.instrument("put_data", s.handlePutData))
	mux.HandleFunc("GET /datasets/{name}", s.instrument("info", s.handleInfo))
	mux.HandleFunc("DELETE /datasets/{name}", s.instrument("delete", s.handleDelete))
	mux.HandleFunc("GET /datasets/{name}/violations", s.instrumentStream("violations", s.handleViolations))
	mux.HandleFunc("POST /datasets/{name}/deltas", s.instrument("deltas", s.handleDeltas))
	mux.HandleFunc("POST /datasets/{name}/repair", s.instrument("repair", s.handleRepair))
	mux.HandleFunc("POST /datasets/{name}/implication", s.instrument("implication", s.handleImplication))
	mux.HandleFunc("GET /datasets/{name}/consistency", s.instrument("consistency", s.handleConsistency))
	mux.HandleFunc("POST /datasets/{name}/minimize", s.instrument("minimize", s.handleMinimize))
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.nRequests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// BaseContext is the value for http.Server.BaseContext: request contexts
// derive from it, so Drain cancels every in-flight request.
func (s *Server) BaseContext(net.Listener) context.Context { return s.baseCtx }

// Drain cancels the base context: in-flight violation streams emit a final
// error line and end, new streams end immediately. Call it before
// http.Server.Shutdown so long-lived streams don't stall the shutdown.
func (s *Server) Drain() { s.drainFn() }

// Vars returns the server's metric map, for publishing under a process-wide
// expvar name.
func (s *Server) Vars() expvar.Var { return s.vars }

// CreateDataset registers (or atomically replaces) a dataset: an empty
// database over the set's schema, served with the given worker-pool bound
// (0 = GOMAXPROCS). It is the programmatic form of PUT
// /datasets/{name}/constraints; replacing a dataset resets its data.
//
// In durable mode the dataset directory (constraint spec + empty WAL) is
// staged and renamed into place before the registry swap: a failed create
// leaves no on-disk residue, and replacing a dataset atomically replaces
// its on-disk state too. Names must satisfy wal.ValidName. In-memory mode
// never fails. A router creates the dataset on every shard first.
func (s *Server) CreateDataset(name string, set *cind.ConstraintSet, parallel int) error {
	return s.createDataset(context.Background(), name, set, parallel)
}

func (s *Server) createDataset(ctx context.Context, name string, set *cind.ConstraintSet, parallel int) error {
	d, err := s.create(ctx, name, set, parallel)
	if err != nil {
		return err
	}
	s.installDataset(d)
	return nil
}

// createLocal is a single node's dataset factory.
func (s *Server) createLocal(_ context.Context, name string, set *cind.ConstraintSet, parallel int) (dataset, error) {
	d, err := s.newLocal(name, set, parallel)
	if err != nil {
		return nil, err
	}
	if s.store != nil {
		if err := s.store.Create(name, cind.MarshalConstraints(set)); err != nil {
			d.closeBackend()
			if !wal.ValidName(name) {
				// The dataset name doubles as a directory name: one the
				// store rejects is the client's fault.
				err = &statusError{code: http.StatusBadRequest, err: err}
			}
			return nil, err
		}
		pd, err := s.store.Open(name)
		if err != nil {
			s.store.Remove(name)
			d.closeBackend()
			return nil, err
		}
		d.pd = pd
	}
	return d, nil
}

func (s *Server) newLocal(name string, set *cind.ConstraintSet, parallel int) (*local, error) {
	d := &local{datasetMeta: newMeta(name, set), db: cind.NewDatabase(set.Schema()),
		parallel: parallel, store: s.store,
		snapBatches: s.snapBatches, snapBytes: s.snapBytes, snapErrs: s.nSnapErrs,
		memo: newMemo[cind.Version](s.memos)}
	d.lastSizes = make(map[string]int, set.Schema().Len())
	for _, rel := range set.Schema().Relations() {
		d.lastSizes[rel.Name()] = 0
	}
	if s.backend != "" {
		sqlDB, err := cind.OpenSQLBackend(s.backend)
		if err != nil {
			return nil, err
		}
		d.sqlDB = sqlDB
	}
	return d, nil
}

// installDataset swaps d into the registry. A displaced dataset is closed
// so a writer still in flight on the old value fails fast instead of
// appending to a directory that was renamed away.
func (s *Server) installDataset(d dataset) {
	name := d.meta().name
	s.mu.Lock()
	old, existed := s.datasets[name]
	s.datasets[name] = d
	s.mu.Unlock()
	if !existed {
		s.nDatasets.Add(1)
	} else {
		_ = old.close() // nobody is left to report a displaced log's close error to
	}
}

// closePersist waits out any in-flight mutation and closes the dataset's
// WAL handle; later persisted writes fail with a closed-log error. No-op
// in-memory and idempotent.
func (d *local) closePersist() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if d.pd != nil {
		return d.pd.Close()
	}
	return nil
}

// closeBackend closes the dataset's SQL backend handle, if any: a stream
// still running on a displaced dataset fails fast instead of querying a
// mirror nobody maintains. No-op in-memory and idempotent (sql.DB.Close
// is).
func (d *local) closeBackend() {
	if d.sqlDB != nil {
		d.sqlDB.Close()
	}
}

func (d *local) close() error {
	err := d.closePersist()
	d.closeBackend()
	return err
}

// remove closes the dataset and, in durable mode, removes its directory
// atomically (renamed out of the namespace before deletion) — no crash
// instant leaves a half-deleted dataset for recovery to trip over.
func (d *local) remove(context.Context) error {
	d.closeBackend()
	if d.store == nil {
		return nil
	}
	_ = d.closePersist() // the directory goes next; a flush error changes nothing
	if err := d.store.Remove(d.name); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// LoadCSV loads CSV rows (header required) into relation rel of the named
// dataset — the programmatic form of PUT /datasets/{name}?relation=rel.
// Before a local dataset's checker exists the rows are loaded directly;
// after, they are converted to insert deltas and absorbed through
// Checker.Apply so concurrent streams never observe a half-loaded relation.
func (s *Server) LoadCSV(name, rel string, r io.Reader) error {
	d, ok := s.dataset(name)
	if !ok {
		return fmt.Errorf("server: no dataset %q", name)
	}
	return d.loadCSV(context.Background(), rel, r)
}

func (s *Server) dataset(name string) (dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.datasets[name]
	return d, ok
}

func (s *Server) datasetCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.datasets)
}

func (d *local) loadCSV(ctx context.Context, rel string, r io.Reader) error {
	if _, ok := d.set.Schema().Relation(rel); !ok {
		return fmt.Errorf("dataset %q has no relation %q", d.name, rel)
	}
	// writeMu orders this load against other mutations and, in durable
	// mode, keeps the WAL append adjacent to the in-memory effect.
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	d.mu.Lock()
	if d.chk == nil {
		// No checker yet means no reader can be scanning the database
		// (building the checker requires this mutex), so load in place.
		if d.pd == nil {
			defer d.mu.Unlock()
			return cind.LoadCSV(d.db, rel, r, true)
		}
		// Durable: validate into a scratch instance first so the rows can
		// be logged as insert batches (the WAL's only record kind), then
		// absorb them in place. Instances are sets, so in-place inserts
		// and replayed insert deltas converge on identical contents.
		scratch := cind.NewDatabase(d.set.Schema())
		if err := cind.LoadCSV(scratch, rel, r, true); err != nil {
			d.mu.Unlock()
			return err
		}
		tuples := scratch.Instance(rel).Tuples()
		in := d.db.Instance(rel)
		for _, t := range tuples {
			in.Insert(t)
		}
		d.mu.Unlock()
		if err := d.persistInserts(rel, tuples); err != nil {
			return &notDurableError{err: err}
		}
		return nil
	}
	chk := d.chk
	d.mu.Unlock()
	// A checker exists: direct writes could race a read pinning its
	// version (which scans the database), so validate into a scratch
	// instance with the same hardened loader, then let Apply absorb the
	// rows under the checker's write lock. The dataset mutex is released
	// first — the first Apply seeds the session over the whole database,
	// and holding the mutex meanwhile would stall every other endpoint of
	// the dataset.
	scratch := cind.NewDatabase(d.set.Schema())
	if err := cind.LoadCSV(scratch, rel, r, true); err != nil {
		return err
	}
	tuples := scratch.Instance(rel).Tuples()
	deltas := make([]cind.Delta, len(tuples))
	for i, t := range tuples {
		deltas[i] = cind.InsertDelta(rel, t)
	}
	if _, err := chk.Apply(ctx, deltas...); err != nil {
		return err
	}
	d.markIncremental()
	if err := d.persistDeltas(deltas); err != nil {
		return &notDurableError{err: err}
	}
	return nil
}

// applyDeltas runs Apply outside the dataset mutex: Apply holds the
// checker's write lock while it seeds the session (the first time) and
// applies the batch, and the rest of the dataset's endpoints must stay
// live meanwhile. A stream in progress never holds Apply up — it keeps
// yielding the version it pinned — so Apply waits only for reads that are
// pinning a version. writeMu keeps the WAL append adjacent to the
// apply so log order equals apply order; in-memory mode writers are
// already serialized by the checker's write lock, so the extra mutex costs
// no concurrency.
func (d *local) applyDeltas(ctx context.Context, deltas []cind.Delta) (diffWire, error) {
	d.writeMu.Lock()
	diff, err := d.checker().Apply(ctx, deltas...)
	if err != nil {
		d.writeMu.Unlock()
		return diffWire{}, err
	}
	perr := d.persistDeltas(deltas)
	d.writeMu.Unlock()
	d.markIncremental()
	out := diffWire{Added: encodeReport(&diff.Added), Removed: encodeReport(&diff.Removed)}
	if d.pd != nil {
		durable := perr == nil
		out.Durable = &durable
	}
	if perr != nil {
		return out, &notDurableError{err: perr}
	}
	return out, nil
}

// notDurableError marks a mutation that is live but failed to reach the
// WAL: the handler must not answer with an error status (a retrying client
// would double-apply) — it reports success with "durable": false instead.
type notDurableError struct{ err error }

func (e *notDurableError) Error() string {
	return "applied but not durably logged: " + e.err.Error()
}

func (e *notDurableError) Unwrap() error { return e.err }

// statusError is an error that carries the status it answers: a routed
// fan-out failure (502), a request the serving mode refuses (400), an
// endpoint the mode cannot serve (501).
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }

func (e *statusError) Unwrap() error { return e.err }

// relationSizes reports per-relation tuple counts without racing writers
// and without stalling: raw reads under the dataset mutex while no checker
// exists (every checker-less write path holds it), the checker's
// non-blocking TryRelationSizes after. When a writer holds or awaits the
// checker lock the last-known snapshot is served instead — an info probe
// must not queue behind a delta batch that is itself queued behind a
// long-lived stream.
func (d *local) relationSizes() (map[string]int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.chk == nil {
		out := make(map[string]int, d.set.Schema().Len())
		for _, rel := range d.set.Schema().Relations() {
			out[rel.Name()] = d.db.Instance(rel.Name()).Len()
		}
		d.lastSizes = out
		return out, false
	}
	if sizes, ok := d.chk.TryRelationSizes(); ok {
		d.lastSizes = sizes
		return sizes, d.incremental
	}
	return d.lastSizes, d.incremental
}

// markIncremental records that an Apply-path write succeeded, so info can
// report the mode without taking the checker's (possibly writer-queued)
// lock.
func (d *local) markIncremental() {
	d.mu.Lock()
	d.incremental = true
	d.mu.Unlock()
}

// violations pins the version the stream reports before its headers go
// out, so an unlimited read of a recurring version knows its entity tag.
func (d *local) violations(ctx context.Context, rd violationRead) (violationStream, error) {
	ls := &localStream{ctx: ctx, rd: rd}
	ls.ver, ls.err = d.checker().Pin(ctx)
	if ls.err == nil && rd.limit == 0 && ls.ver.Recurs() {
		ls.memoRead = d.memo.open(ls.ver, rd.enc)
	}
	return ls, nil
}

// localStream is a pinned version of the Checker feeding an engine
// stream.Writer, or its kept body when the dataset's memo holds one.
type localStream struct {
	memoRead[cind.Version]
	ctx context.Context
	rd  violationRead
	ver cind.Version
	err error // Pin's error, which ends the stream
}

func (ls *localStream) run(out io.Writer, fl stream.Flusher) (streamWriter, int64, string) {
	if k := ls.hit(out, fl); k != nil {
		return k, k.count, k.writeViolations()
	}
	sw := stream.NewWriter(out, fl, ls.rd.enc, stream.Options{})
	if ls.err != nil {
		return sw, 0, ls.err.Error()
	}
	ls.keep(sw)
	limit := ls.rd.limit
	n := 0
	endErr := ""
	for v, err := range ls.ver.Violations(ls.ctx) {
		if err != nil {
			// Cancellation (client gone, or Drain): end with the terminal
			// error record — a disconnected client simply won't read it —
			// and unwind the iterator, which stops the workers before
			// Violations hands control back.
			endErr = err.Error()
			break
		}
		if !sw.Send(v) {
			// The response writer failed: the client is gone. CloseError
			// keeps the writer's bookkeeping exact; nothing reaches the
			// socket.
			endErr = "client write failed"
			break
		}
		if n++; limit > 0 && n >= limit {
			break
		}
	}
	return sw, int64(n), endErr
}

func (*localStream) release() {}

// repair never mutates the dataset's database — it reports the repaired
// copy's actions; feed them back as deltas to apply them.
func (d *local) repair(ctx context.Context, opts cind.RepairOptions) (*cind.RepairResult, error) {
	return d.checker().Repair(ctx, opts)
}

// --- handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The status line is already on the wire; an Encode failure here
	// means the client went away mid-response and there is no channel
	// left to report on. Streaming endpoints use stream.Writer, whose
	// terminal record makes truncation detectable — this helper is for
	// small one-shot documents only.
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorWire{Error: err.Error()})
}

// fail answers err with its error body. A *statusError answers its own
// status, an over-cap request body 413, a cancellation — the client gone,
// or Drain — 503, a retryable server condition; anything else answers
// fallback: 400 where the request content can be at fault, 500 where it
// cannot.
func fail(w http.ResponseWriter, err error, fallback int) {
	var se *statusError
	var mbe *http.MaxBytesError
	code := fallback
	switch {
	case errors.As(err, &se):
		code = se.code
	case errors.As(err, &mbe):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusServiceUnavailable
	}
	httpError(w, code, err)
}

// findDataset resolves {name} or writes a 404.
func (s *Server) findDataset(w http.ResponseWriter, r *http.Request) (dataset, bool) {
	name := r.PathValue("name")
	d, ok := s.dataset(name)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no dataset %q", name))
		return nil, false
	}
	return d, true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "datasets": s.datasetCount()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// One-shot document; a failed write means the scraper went away and
	// there is nothing left to tell it.
	_, _ = fmt.Fprintln(w, s.vars.String())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"datasets": names})
}

func (s *Server) handlePutConstraints(w http.ResponseWriter, r *http.Request) {
	parallel := 0
	if p := r.URL.Query().Get("parallel"); p != "" {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad parallel %q", p))
			return
		}
		parallel = n
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxConstraintsBody))
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	set, err := cind.ParseConstraints(string(body))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	name := r.PathValue("name")
	ctx, stop := s.boundContext(r)
	defer stop()
	if err := s.createDataset(ctx, name, set, parallel); err != nil {
		fail(w, err, http.StatusInternalServerError)
		return
	}
	rels := make([]string, 0, set.Schema().Len())
	for _, rel := range set.Schema().Relations() {
		rels = append(rels, rel.Name())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset": name, "constraints": set.Len(), "relations": rels,
	})
}

func (s *Server) handlePutData(w http.ResponseWriter, r *http.Request) {
	d, ok := s.findDataset(w, r)
	if !ok {
		return
	}
	rel := r.URL.Query().Get("relation")
	if rel == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing ?relation= query parameter"))
		return
	}
	ctx, stop := s.boundContext(r)
	defer stop()
	err := d.loadCSV(ctx, rel, http.MaxBytesReader(w, r.Body, maxCSVBody))
	var nde *notDurableError
	if err != nil && !errors.As(err, &nde) {
		fail(w, err, http.StatusBadRequest)
		return
	}
	sizes, _ := d.relationSizes()
	resp := map[string]any{"dataset": d.meta().name, "relation": rel, "tuples": sizes[rel]}
	if nde != nil {
		// The rows are live; only the WAL append failed. Same contract as
		// deltas: success with "durable": false, never a retry-inviting
		// error status.
		s.nWALErrs.Add(1)
		resp["durable"] = false
		resp["storage_error"] = nde.Error()
		w.Header().Set("X-Applied", "true")
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	d, ok := s.findDataset(w, r)
	if !ok {
		return
	}
	rels, incremental := d.relationSizes()
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":     d.meta().name,
		"constraints": d.meta().set.Len(),
		"relations":   rels,
		"incremental": incremental,
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	d, ok := s.findDataset(w, r)
	if !ok {
		return
	}
	ctx, stop := s.boundContext(r)
	defer stop()
	if err := d.remove(ctx); err != nil {
		// Keep the dataset registered: the delete is retried once storage
		// (or the failed shard) is back.
		fail(w, err, http.StatusInternalServerError)
		return
	}
	name := d.meta().name
	s.mu.Lock()
	if s.datasets[name] == d {
		delete(s.datasets, name)
		s.nDatasets.Add(-1)
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleViolations streams the dataset's violations in the
// Accept-negotiated encoding (see internal/stream; NDJSON is the default).
// The stream context is the request context (client disconnect cancels the
// engine's worker pool, or a router's scatter) additionally bound to the
// server's base context (Drain ends the stream). ?limit=n stops after n
// violations by breaking the hot loop; ?limit=0, like WithLimit(0),
// streams unlimited — the rejected values are negative or non-numeric.
//
// Every exit path emits the encoding's terminal record: the trailer after
// a complete stream (limit included), the terminal error record after a
// cancellation — flushed, so a client can always tell a complete stream
// from a truncated one. The one bodiless answer is 304, to a read whose
// If-None-Match names the stream's tag.
func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request, observe func()) {
	d, ok := s.findDataset(w, r)
	if !ok {
		return
	}
	limit := 0
	if l := r.URL.Query().Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("bad limit %q (want a non-negative integer; 0 streams unlimited)", l))
			return
		}
		limit = n
	}
	enc := stream.Negotiate(r.Header.Get("Accept"))
	inm := r.Header.Get("If-None-Match")

	ctx, stop := s.boundContext(r)
	defer stop()
	vs, err := d.violations(ctx, violationRead{enc: enc, limit: limit, ifNoneMatch: inm})
	if err != nil {
		fail(w, err, http.StatusInternalServerError)
		return
	}
	defer vs.release()

	h := w.Header()
	h.Set("Vary", "Accept")
	if tag := vs.etag(); tag != "" {
		h.Set("ETag", tag)
		if noneMatch(inm, tag) {
			s.nNotModified.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	h.Set("Content-Type", enc.ContentType())
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)

	s.nActiveStream.Add(1)
	sw, n, endErr := vs.run(w, fl)
	// Settle the stream's metrics before its terminal record goes out, so
	// /metrics agrees with any stream a client has finished reading. The
	// writer writes every violation it was handed unless the client is
	// gone; then nobody reads the terminal record, and Count corrects the
	// total afterwards.
	s.nStreamed.Add(n)
	s.nActiveStream.Add(-1)
	observe()
	if endErr != "" {
		sw.CloseError(endErr)
	} else {
		sw.Close()
	}
	if c := sw.Count(); c != n {
		s.nStreamed.Add(c - n)
	}
}

// handleDeltas applies one atomic batch of tuple deltas and returns the
// net report change. Malformed batches — bad JSON, unknown ops or
// relations, arity mismatches, out-of-domain values — are
// domain-validation failures and answer 400, never 500.
func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	d, ok := s.findDataset(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDeltasBody))
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	deltas, err := decodeDeltas(body, d.meta().set)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx, stop := s.boundContext(r)
	defer stop()
	resp, err := d.applyDeltas(ctx, deltas)
	var nde *notDurableError
	if err != nil && !errors.As(err, &nde) {
		// decodeDeltas screened every validation failure, so what reaches
		// here is cancellation — the client going away, or Drain during
		// shutdown: retry — or a failed shard fan-out.
		fail(w, err, http.StatusInternalServerError)
		return
	}
	s.nDeltas.Add(int64(len(deltas)))
	resp.Applied = len(deltas)
	if nde != nil {
		// The batch is live but not durably logged: the server's storage
		// is failing, not the request. This must NOT be an error status — a
		// retrying client would double-apply a batch that is already live —
		// so the diff is returned with "durable": false (and an X-Applied
		// header, for clients that only look at headers) and the storage
		// failure is reported alongside, not instead.
		s.nWALErrs.Add(1)
		resp.StorageError = fmt.Sprintf("delta batch applied but not durably logged: %v", nde.err)
		w.Header().Set("X-Applied", "true")
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRepair computes a repair and returns the change log. The dataset
// itself is never mutated.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	d, ok := s.findDataset(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRepairBody))
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	var req repairRequest
	if len(body) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decode repair options: %v", err))
			return
		}
	}
	if req.MaxPasses < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad max_passes %d", req.MaxPasses))
		return
	}
	ctx, stop := s.boundContext(r)
	defer stop()
	res, err := d.repair(ctx, cind.RepairOptions{MaxPasses: req.MaxPasses})
	if err != nil {
		// A local repair only fails on cancellation (disconnect or
		// shutdown); a router refuses with its own status.
		fail(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, encodeRepair(res))
}

// --- reasoning handlers ---

// boundContext binds a request context to the server's base context, so a
// Drain cancels in-flight work (streams and reasoning alike) exactly like
// a client disconnect. The returned stop func must be deferred.
func (s *Server) boundContext(r *http.Request) (context.Context, func()) {
	ctx, cancel := context.WithCancel(r.Context())
	unbind := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { unbind(); cancel() }
}

// implicationOptions reads the reasoning budget knobs from the query —
// the serving face of the paper's budgeted decision procedure:
// ?parallel= bounds the case-split worker pool, ?max_valuations= the
// finite-domain branch cap, ?chase_steps= and ?table_cap= the per-branch
// chase budgets.
func implicationOptions(r *http.Request) (cind.ImplicationOptions, error) {
	var opts cind.ImplicationOptions
	q := r.URL.Query()
	if p := q.Get("parallel"); p != "" {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return opts, fmt.Errorf("bad parallel %q", p)
		}
		opts.Parallel = n
	}
	for _, knob := range []struct {
		name string
		dst  *int
	}{
		{"max_valuations", &opts.MaxValuations},
		{"chase_steps", &opts.ChaseSteps},
		{"table_cap", &opts.TableCap},
	} {
		v := q.Get(knob.name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return opts, fmt.Errorf("bad %s %q", knob.name, v)
		}
		*knob.dst = n
	}
	return opts, nil
}

// handleImplication decides Σ ⊨ ψ for every cind clause in the body, where
// Σ is the dataset's CIND set and the clauses are stated against the
// dataset's schema (no relation declarations in the body). The response
// carries one verdict per goal, in goal order, with the inference-system
// proof or the chase counterexample as the certificate. A client
// disconnect cancels the case-split fan-out; cancellation answers 503.
func (s *Server) handleImplication(w http.ResponseWriter, r *http.Request) {
	d, ok := s.findDataset(w, r)
	if !ok {
		return
	}
	opts, err := implicationOptions(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxGoalsBody))
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	m := d.meta()
	goals, err := decodeGoals(body, m.goalPrefix)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx, stop := s.boundContext(r)
	defer stop()
	outcomes, err := m.set.ImplyAll(ctx, goals, opts)
	if err != nil {
		// Non-cancellation errors here are goal-validation failures — the
		// client's clauses.
		fail(w, err, http.StatusBadRequest)
		return
	}
	s.nImplication.Add(int64(len(goals)))
	resp := implicationResponse{Results: make([]implicationWire, len(outcomes))}
	for i, out := range outcomes {
		resp.Results[i] = encodeOutcome(goals[i].ID, out)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleConsistency runs the combined Checking algorithm (Figure 9) on the
// dataset's constraint set: every weakly-connected component of the
// reduced dependency graph must yield a witness, and the merged witness
// template is returned with a true answer (definitive, Theorem 5.1).
// Budgets come from the query: ?k= attempts, ?seed= for reproducibility,
// ?method=chase|sat, ?parallel= for the component fan-out. Cancellation
// answers 503.
func (s *Server) handleConsistency(w http.ResponseWriter, r *http.Request) {
	d, ok := s.findDataset(w, r)
	if !ok {
		return
	}
	var opts cind.CheckOptions
	q := r.URL.Query()
	intArg := func(name string, dst *int, min int) bool {
		v := q.Get(name)
		if v == "" {
			return true
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < min {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad %s %q", name, v))
			return false
		}
		*dst = n
		return true
	}
	if !intArg("k", &opts.K, 1) || !intArg("parallel", &opts.Parallel, 0) {
		return
	}
	if seed := q.Get("seed"); seed != "" {
		n, err := strconv.ParseInt(seed, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad seed %q", seed))
			return
		}
		opts.Seed = n
	}
	switch q.Get("method") {
	case "", "chase":
	case "sat":
		opts.Method = cind.CheckSAT
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad method %q (want chase or sat)", q.Get("method")))
		return
	}
	ctx, stop := s.boundContext(r)
	defer stop()
	ans, err := d.meta().set.CheckConsistencyContext(ctx, opts)
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	s.nConsistency.Add(1)
	resp := consistencyWire{Consistent: ans.Consistent}
	if ans.Witness != nil {
		resp.Witness = encodeDatabase(ans.Witness)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMinimize runs ConstraintSet.Minimize on the dataset's set and
// returns the minimized set rendered in the constraint text format —
// ready to PUT to a constraints endpoint — plus one implication
// certificate per dropped constraint. The dataset itself is not modified:
// minimization is a read-only analysis, applied by re-uploading the
// returned spec. Cancellation answers 503.
func (s *Server) handleMinimize(w http.ResponseWriter, r *http.Request) {
	d, ok := s.findDataset(w, r)
	if !ok {
		return
	}
	opts, err := implicationOptions(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx, stop := s.boundContext(r)
	defer stop()
	res, err := d.meta().set.Minimize(ctx, opts)
	if err != nil {
		// Minimize takes no request content: a non-cancellation failure is
		// the server's own invariant breaking, never the client's fault.
		fail(w, err, http.StatusInternalServerError)
		return
	}
	s.nMinimize.Add(1)
	resp := minimizeWire{
		Kept:        res.Set.Len(),
		Dropped:     make([]droppedWire, len(res.Dropped)),
		Constraints: cind.MarshalConstraints(res.Set),
	}
	for i, dr := range res.Dropped {
		dw := droppedWire{
			ID:         dr.CIND.ID,
			Index:      dr.Index,
			Constraint: dr.CIND.String(),
			Verdict:    dr.Outcome.Verdict.String(),
			Reason:     dr.Outcome.Reason,
		}
		if dr.Outcome.Proof != nil {
			dw.Proof = dr.Outcome.Proof.String()
		}
		resp.Dropped[i] = dw
	}
	writeJSON(w, http.StatusOK, resp)
}
