package cind

import (
	"context"
	"database/sql"
	"fmt"
	"iter"
	"sync"

	"cind/internal/cfd"
	"cind/internal/consistency"
	"cind/internal/constraint"
	core "cind/internal/core"
	"cind/internal/detect"
	"cind/internal/fd"
	"cind/internal/ind"
	"cind/internal/parser"
	"cind/internal/repair"
	"cind/internal/schema"
	"cind/internal/sqlbackend"
)

// Constraint is the sealed common interface of *CFD and *CIND — the paper's
// observation that conditional dependencies form one family (an FD or IND
// is exactly a CFD or CIND with an all-wildcard tableau) made a static
// type. Discriminate with Kind; no type outside this library implements it.
type Constraint = constraint.Constraint

// ConstraintKind discriminates the constraint family of a Constraint or a
// Violation.
type ConstraintKind = constraint.Kind

// Constraint kinds.
const (
	KindCFD  = constraint.KindCFD
	KindCIND = constraint.KindCIND
)

// Traditional-dependency types — the baselines CFDs and CINDs extend.
// LiftFD and LiftIND admit them into a ConstraintSet.
type (
	// FD is a traditional functional dependency R: X → Y.
	FD = fd.FD
	// IND is a traditional inclusion dependency R[X] ⊆ S[Y].
	IND = ind.IND
)

// NewFD builds a traditional FD (no schema validation; LiftFD validates).
var NewFD = fd.New

// NewIND builds a traditional IND, validating arity and distinctness.
var NewIND = ind.New

// LiftFD admits a traditional FD as a CFD with a single all-wildcard
// pattern row — the Section 2 special case. The lifted constraint reports
// exactly the violating pairs of the plain FD semantics, a property the
// equivalence tests assert against internal/fd on the bank and generated
// workloads.
func LiftFD(sch *Schema, id string, f FD) (*CFD, error) { return cfd.LiftFD(sch, id, f) }

// LiftIND admits a traditional IND as a CIND with empty pattern attribute
// lists and a single all-wildcard row — the Section 2 special case. The
// lifted constraint reports exactly the unmatched tuples of the plain IND
// semantics, in the same order.
func LiftIND(sch *Schema, id string, d IND) (*CIND, error) { return core.LiftIND(sch, id, d) }

// ConstraintSet is an ordered, schema-validated collection of constraints —
// the unit every entry point consumes. Order is preserved exactly as given
// (or as parsed): Constraints returns it, MarshalConstraints round-trips
// it, and within each kind reports group violations in it. Reports always
// list CFD violations before CIND violations regardless of how the kinds
// interleave in the set (the engine's fixed concatenation order, which
// Limit truncation follows too). A ConstraintSet is immutable after
// construction and safe for concurrent use by any number of Checkers.
type ConstraintSet struct {
	sch   *schema.Schema
	items []Constraint
	cfds  []*cfd.CFD
	cinds []*core.CIND
}

// NewConstraintSet validates every constraint against sch (the same checks
// the constructors run) and returns the set. Constraints keep their given
// order; a nil constraint or a validation failure rejects the whole set.
func NewConstraintSet(sch *Schema, cs ...Constraint) (*ConstraintSet, error) {
	if sch == nil {
		return nil, fmt.Errorf("cind: NewConstraintSet: nil schema")
	}
	s := &ConstraintSet{sch: sch, items: make([]Constraint, 0, len(cs))}
	for i, c := range cs {
		if c == nil {
			return nil, fmt.Errorf("cind: NewConstraintSet: constraint %d is nil", i)
		}
		if err := c.Validate(sch); err != nil {
			return nil, fmt.Errorf("cind: NewConstraintSet: constraint %d: %w", i, err)
		}
		s.items = append(s.items, c)
		switch c := c.(type) {
		case *cfd.CFD:
			s.cfds = append(s.cfds, c)
		case *core.CIND:
			s.cinds = append(s.cinds, c)
		}
	}
	return s, nil
}

// MustConstraintSet is NewConstraintSet for statically valid sets.
func MustConstraintSet(sch *Schema, cs ...Constraint) *ConstraintSet {
	s, err := NewConstraintSet(sch, cs...)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseConstraints parses the textual constraint format (see
// internal/parser) into a ConstraintSet, preserving the file's constraint
// order. MarshalConstraints is its inverse: parse ∘ marshal round-trips the
// set, order included.
func ParseConstraints(src string) (*ConstraintSet, error) {
	spec, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return NewConstraintSet(spec.Schema, spec.Constraints...)
}

// MarshalConstraints renders the set in the parseable text format, in set
// order.
func MarshalConstraints(s *ConstraintSet) string {
	return parser.Marshal(&parser.Spec{
		Schema: s.sch, CFDs: s.cfds, CINDs: s.cinds, Constraints: s.items,
	})
}

// SpecSet converts a parsed Spec into a ConstraintSet (source order when
// the spec was produced by ParseSpec and not edited since; CFDs-then-CINDs
// for hand-built specs or edited per-kind slices — the per-kind fields are
// authoritative).
func SpecSet(spec *Spec) (*ConstraintSet, error) {
	return NewConstraintSet(spec.Schema, spec.Ordered()...)
}

// Schema returns the schema the set was validated against.
func (s *ConstraintSet) Schema() *Schema { return s.sch }

// Len returns the number of constraints.
func (s *ConstraintSet) Len() int { return len(s.items) }

// Constraints returns the constraints in set order (a copy).
func (s *ConstraintSet) Constraints() []Constraint {
	return append([]Constraint(nil), s.items...)
}

// CFDs returns the set's CFDs in set order (a copy).
func (s *ConstraintSet) CFDs() []*CFD { return append([]*cfd.CFD(nil), s.cfds...) }

// CINDs returns the set's CINDs in set order (a copy).
func (s *ConstraintSet) CINDs() []*CIND { return append([]*core.CIND(nil), s.cinds...) }

// Append returns a new set extending s with cs (validated); s is unchanged.
func (s *ConstraintSet) Append(cs ...Constraint) (*ConstraintSet, error) {
	return NewConstraintSet(s.sch, append(s.Constraints(), cs...)...)
}

// CheckConsistency runs the combined Checking algorithm of Section 5
// (Figure 9) on the set. A true answer is definitive (Theorem 5.1); false
// means no witness was found within the budgets.
func (s *ConstraintSet) CheckConsistency(opts CheckOptions) CheckAnswer {
	return consistency.Checking(s.sch, s.cfds, s.cinds, opts)
}

// RandomCheckConsistency runs the plain RandomChecking algorithm
// (Figure 5) on the set.
func (s *ConstraintSet) RandomCheckConsistency(opts CheckOptions) CheckAnswer {
	return consistency.RandomChecking(s.sch, s.cfds, s.cinds, opts)
}

// Violation is the unified violation sum type the Checker reports: a CFD
// pair violation or a CIND inclusion violation. Discriminate with Kind,
// recover the constraint with Constraint and the offending tuples with
// Witness; AsCFD/AsCIND expose the kind-specific detail. The Report's
// per-kind CFD/CIND fields remain available behind it.
type Violation = detect.Violation

// CheckerOption is a functional option for NewChecker.
type CheckerOption func(*checkerConfig)

type checkerConfig struct {
	parallel int
	limit    int
	sqlDB    *sql.DB
}

// WithParallelism bounds the engine's worker pool: 0 (the default) means
// GOMAXPROCS, 1 forces sequential evaluation. Results are identical
// regardless.
func WithParallelism(n int) CheckerOption {
	return func(c *checkerConfig) { c.parallel = n }
}

// WithLimit caps reported violations: Detect returns the first n violations
// of the unlimited run (a true prefix, pair enumeration stops early once
// the cap is unreachable), and Violations yields the same n, in the same
// order. 0 means unlimited.
func WithLimit(n int) CheckerOption {
	return func(c *checkerConfig) { c.limit = n }
}

// WithSQLBackend routes batch detection through SQL instead of the
// in-memory engine: the checker mirrors its database into db (schema DDL
// plus bulk ingest, re-synced only when a relation changes), runs the
// [9]-style detection queries of internal/sqlgen over database/sql, and
// folds the result rows back into the ordinary report — the same
// violations, in the same order, so Detect, Violations and WithLimit
// behave identically under either backend. Open a handle with
// OpenSQLBackend ("mem:" selects the embedded zero-dependency engine; any
// registered driver works). The handle is used, not owned: closing it
// remains the caller's responsibility, and it must not be shared between
// checkers. Once Apply builds the incremental session, the session's
// maintained report takes over and the SQL backend goes idle, exactly as
// the batch engine does.
func WithSQLBackend(db *sql.DB) CheckerOption {
	return func(c *checkerConfig) { c.sqlDB = db }
}

// Checker is the unified constraint-checking handle: one long-lived value
// that serves batch detection (Detect), streaming detection (Violations)
// and incremental maintenance under writes (Apply) for one database and one
// ConstraintSet.
//
// Every read evaluates one version of the database through a detection
// plan (detect.Plan): the referenced relations coded and the constraint
// groups compiled against those codes. A plan evaluates once: the first
// complete read of a version keeps its result, and every later read of the
// same version replays it instead of running the engine again. Until the
// first Apply, the checker keeps a resident plan keyed on each referenced
// relation's Instance.Version, so the first read after a direct write to
// the database codes it afresh. The first Apply drops that plan and builds
// the resident incremental session (interned projection indexes kept
// resident, violations maintained in O(affected-group) time per delta);
// from then on the Checker owns the database — do not mutate it directly —
// and each version's plan is the session's, published by the first read
// after an Apply with the maintained report as its result. Either way a
// read reports what batch detection over the current contents would
// produce, violation for violation, in the same order.
//
// A Checker is safe for concurrent use: Apply takes the write lock, and a
// read takes the read lock only while it pins the version it reports — its
// plan, or the SQL backend's result — so a read never observes a
// half-applied write. A read evaluates and yields without the lock, so a
// long-lived Violations iteration never blocks a writer, and calling any
// method of the same Checker from inside the loop is supported. Repair
// holds the read lock for its whole run: it repairs a copy of the database
// itself.
type Checker struct {
	db  *Database
	set *ConstraintSet
	cfg checkerConfig

	// mu orders database readers against Apply, and so the session's
	// version publication against its writes: the session has no lock of
	// its own. Apply holds the write lock while it builds the session or
	// applies a batch; a read holds the read lock while it pins its
	// version — while it checks or rebuilds the plan, publishes the
	// session's version, runs the SQL backend, or clones for a repair.
	mu   sync.RWMutex
	sess *detect.Session

	// planMu guards plan, the batch engine's resident plan for reads
	// before the first Apply. It is held only while the plan is checked
	// against the database or rebuilt, never while the engine evaluates
	// it: a plan owns the rows it reports, so concurrent readers share one
	// build and evaluate it without locks, even after the database moved
	// on.
	planMu sync.Mutex
	plan   *detect.Plan

	// backend, when non-nil, serves pre-session batch detection through
	// SQL (WithSQLBackend). It has its own mutex; the checker's read lock
	// still guards the database scan the mirror sync performs.
	backend *sqlbackend.Backend
}

// NewChecker validates the set against db's schema and returns the handle.
// The database is read, not copied: it must not be mutated behind the
// Checker's back once Apply has been called.
func NewChecker(db *Database, set *ConstraintSet, opts ...CheckerOption) (*Checker, error) {
	if db == nil {
		return nil, fmt.Errorf("cind: NewChecker: nil database")
	}
	if set == nil {
		return nil, fmt.Errorf("cind: NewChecker: nil constraint set")
	}
	// The set was validated at construction, but against its own schema;
	// re-validate against the database's, which is the one detection
	// resolves attribute positions over.
	if db.Schema() != set.Schema() {
		for i, c := range set.items {
			if err := c.Validate(db.Schema()); err != nil {
				return nil, fmt.Errorf("cind: NewChecker: constraint %d not valid over the database schema: %w", i, err)
			}
		}
	}
	c := &Checker{db: db, set: set}
	for _, o := range opts {
		o(&c.cfg)
	}
	if c.cfg.sqlDB != nil {
		c.backend = sqlbackend.New(c.cfg.sqlDB)
	}
	return c, nil
}

// OpenSQLBackend opens a database handle for WithSQLBackend from a
// backend spec of the form "driver:dsn": "mem:" selects the embedded
// zero-dependency engine with a fresh private database, "mem:name" a
// shared named one, and any other registered database/sql driver works by
// name ("sqlite:violations.db" once a SQLite driver is linked in).
func OpenSQLBackend(spec string) (*sql.DB, error) { return sqlbackend.Open(spec) }

// Set returns the checker's constraint set.
func (c *Checker) Set() *ConstraintSet { return c.set }

// Incremental reports whether the resident incremental session has been
// built (i.e. Apply has run at least once). Before that, Detect and
// Violations evaluate the database through the batch engine, reusing its
// coded relations while the database is unchanged; after, they serve the
// maintained report.
func (c *Checker) Incremental() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sess != nil
}

// RelationSizes returns the per-relation tuple counts of the checker's
// database, read under the checker's read lock so a concurrent Apply never
// yields torn counts — the safe way to observe the database once the
// checker owns it. Like every reader it waits behind an active or queued
// Apply; liveness-sensitive observers should use TryRelationSizes.
func (c *Checker) RelationSizes() map[string]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.relationSizesLocked()
}

// TryRelationSizes is the non-blocking variant of RelationSizes for
// observers that must not stall — health and info endpoints. It returns
// ok=false instead of waiting when a write holds the lock or is queued
// behind a long-lived read (a queued writer blocks new readers).
func (c *Checker) TryRelationSizes() (sizes map[string]int, ok bool) {
	if !c.mu.TryRLock() {
		return nil, false
	}
	defer c.mu.RUnlock()
	return c.relationSizesLocked(), true
}

func (c *Checker) relationSizesLocked() map[string]int {
	out := make(map[string]int, c.db.Schema().Len())
	for _, rel := range c.db.Schema().Relations() {
		out[rel.Name()] = c.db.Instance(rel.Name()).Len()
	}
	return out
}

// Database returns the database the checker evaluates. After the first
// Apply the checker owns it; use Apply for all writes.
func (c *Checker) Database() *Database { return c.db }

func (c *Checker) engineOpts() detect.Options {
	return detect.Options{Parallel: c.cfg.parallel, Limit: c.cfg.limit}
}

// pin returns, under the read lock, the version a read reports: the
// session's plan after the first Apply, the resident plan before it, and
// on the SQL backend before the first Apply its report, cut to the
// checker's limit. The caller evaluates a plan without the lock.
func (c *Checker) pin(ctx context.Context) (*detect.Plan, *Report, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	switch {
	case c.sess != nil:
		return c.sess.Plan(), nil, nil
	case c.backend != nil:
		rep, err := c.backend.Detect(ctx, c.db, c.set.cfds, c.set.cinds, c.cfg.limit)
		return nil, rep, err
	}
	return c.detectPlan(), nil, nil
}

// detectPlan returns the resident plan, rebuilding it first when a
// referenced relation changed since it was built. Callers hold c.mu's read
// lock, so no Apply runs meanwhile.
func (c *Checker) detectPlan() *detect.Plan {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if c.plan == nil || !c.plan.Current(c.db) {
		c.plan = nil // let a stale plan's codes go before coding anew
		c.plan = detect.NewPlan(c.db, c.set.cfds, c.set.cinds)
	}
	return c.plan
}

// Detect evaluates every constraint and returns the violation report:
// violations grouped per constraint in set order, CFDs' pair semantics and
// CINDs' inclusion semantics exactly as the per-constraint reference
// implementations define them. Detect is the pinned plan's Run: the first
// read of a database version before the first Apply runs the engine, and
// ctx cancels that run cooperatively — the worker pool stops mid
// enumeration and ctx's error is returned; later reads of the version, and
// every read after the first Apply, materialise the kept result, checking
// ctx only on entry. With WithLimit(n) the report is the first n
// violations of the unlimited run. The checker's lock is held only while
// Detect pins the version it reports, never while the plan is evaluated.
func (c *Checker) Detect(ctx context.Context) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, rep, err := c.pin(ctx)
	if plan == nil {
		return rep, err
	}
	return plan.Run(ctx, c.engineOpts())
}

// Violations streams the report as the engine finds it, instead of
// materialising it first. The stream is Detect's report, violation for
// violation, at every WithParallelism setting, and WithLimit(n) yields its
// first n — Detect's limited report. Ranging and breaking at the first
// violation costs the detection groups whose constraints come before the
// first violated one, not the enumeration of every quadratic pair of a
// dirty instance. Breaking out of the loop stops the workers promptly; the
// iterator does not return until they have exited, so no engine goroutine
// outlives the loop.
//
// Each iteration yields a violation with a nil error. If ctx is cancelled
// before the stream completes, one final (zero Violation, ctx.Err()) pair
// is yielded and the stream ends.
//
// The iterator pins the current version when it starts — its plan,
// streamed through Plan.Each, or the SQL backend's report — and holds no
// lock while it evaluates or yields. It
// yields exactly the report of the version it pinned, whatever writes land
// meanwhile, and in-loop calls to the same Checker — the detect-and-fix
// idiom, Apply included — are supported at any point of its life. Before
// the first Apply, a consumer that drains an unlimited stream of a new
// version leaves its result behind for the next read, as Detect does;
// after it, every version's plan already holds its result.
func (c *Checker) Violations(ctx context.Context) iter.Seq2[Violation, error] {
	return func(yield func(Violation, error) bool) {
		if err := ctx.Err(); err != nil {
			yield(Violation{}, err)
			return
		}
		plan, rep, err := c.pin(ctx)
		if err != nil {
			yield(Violation{}, err)
			return
		}
		if plan == nil {
			yieldReport(ctx, rep, yield)
			return
		}
		n, broke := 0, false
		err = plan.Each(ctx, c.engineOpts(), func(v Violation) bool {
			n++
			broke = !yield(v, nil) || n == c.cfg.limit
			return !broke
		})
		if err != nil && !broke {
			yield(Violation{}, err)
		}
	}
}

// yieldReport yields the SQL backend's report rep in report order without
// copying it, polling ctx before each violation: a cancelled context ends
// the walk with one final (zero Violation, ctx.Err()) pair.
func yieldReport(ctx context.Context, rep *Report, yield func(Violation, error) bool) {
	for i := 0; i < rep.Total(); i++ {
		if err := ctx.Err(); err != nil {
			yield(Violation{}, err)
			return
		}
		var v Violation
		if i < len(rep.CFD) {
			v = detect.CFDViolation(rep.CFD[i])
		} else {
			v = detect.CINDViolation(rep.CIND[i-len(rep.CFD)])
		}
		if !yield(v, nil) {
			return
		}
	}
}

// Apply applies one batch of tuple deltas atomically and returns the net
// report change — violations added and removed, disjoint and
// deterministically ordered. The first Apply builds the resident
// incremental session over the database's current contents (ctx cancels
// that seeding pass, the one full-database pass a checker ever pays; an
// empty Apply is the idiomatic way to pay it eagerly); every subsequent
// batch is maintained in time proportional to the affected projection
// groups, not the database size, and ends the current version: the next
// read publishes the new one. The batch is validated up front and rejected
// whole on error; duplicate inserts and absent deletes are per-delta
// no-ops (set semantics). Apply waits only for reads that are pinning a
// version, never for a Violations loop in progress: that loop keeps
// yielding the version it pinned.
func (c *Checker) Apply(ctx context.Context, deltas ...Delta) (*ReportDiff, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sess == nil {
		sess, err := detect.NewSessionContext(ctx, c.db, c.set.cfds, c.set.cinds)
		if err != nil {
			return nil, err
		}
		c.sess = sess
		c.planMu.Lock()
		c.plan = nil // the session serves every read from now on
		c.planMu.Unlock()
	}
	return c.sess.Apply(deltas...)
}

// Repair produces a repaired copy of the checker's database: CFD violations
// fixed by value modification, CIND violations by inserting the demanded
// tuples, iterated to a fixpoint within opts.MaxPasses. The checker's
// database is never mutated. ctx cancels the repair loop between
// constraints.
func (c *Checker) Repair(ctx context.Context, opts RepairOptions) (*RepairResult, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return repair.RepairContext(ctx, c.db, c.set.cfds, c.set.cinds, opts)
}
