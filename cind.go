// Package cind is a from-scratch Go implementation of conditional inclusion
// dependencies (CINDs) and their companion conditional functional
// dependencies (CFDs), reproducing "Extending Dependencies with Conditions"
// by Bravo, Fan and Ma (VLDB 2007).
//
// The package is a facade: it re-exports the library's stable surface so
// that downstream users need a single import. The implementation lives in
// the internal packages, one per subsystem:
//
//	internal/schema       relational schemas, finite/infinite domains
//	internal/instance     in-memory instances, chase templates, CSV I/O
//	internal/pattern      pattern tableaux and the match order ≍
//	internal/core         CINDs: syntax, semantics, normal form, Theorem 3.2
//	internal/cfd          CFDs: syntax, semantics, normal form
//	internal/inference    the inference system I (rules CIND1–CIND8)
//	internal/implication  implication decision (proofs + chase refutation)
//	internal/chase        the extended chase of Section 5.1
//	internal/consistency  CFD_Checking, RandomChecking, preProcessing, Checking
//	internal/depgraph     dependency graphs G[Σ]
//	internal/gen          the Section 6 workload generator
//	internal/parser       text format for schemas and constraints
//	internal/sqlgen       violation-detection SQL (per [9] and Sec 8)
//	internal/sqlbackend   detection through database/sql over that SQL
//	internal/memdb        embedded zero-dependency database/sql driver
//	internal/constraint   the sealed Constraint interface (CFD | CIND)
//	internal/detect       batched, interned, parallel violation detection
//	internal/server       the cindserve HTTP service over Checker
//	internal/exp          the Section 6 experiment harness
//	internal/lint         the cindlint static-analysis suite (see LINT.md)
//
// The invariants the engines are built on — byte-identical report
// order, cooperative cancellation in O(tuples) loops, checked writes
// on stream exit paths, seeded randomness — are enforced statically by
// cindlint (ci runs it after vet); LINT.md catalogues them.
//
// # Quick start
//
// The unit of work is a ConstraintSet — an ordered, schema-validated mix of
// CFDs and CINDs (and, via LiftFD/LiftIND, plain FDs and INDs, which the
// paper shows are the all-wildcard special case) — and the serving handle
// is a Checker bound to one database and one set:
//
//	set, err := cind.ParseConstraints(src)    // schema + constraints from text
//	chk, err := cind.NewChecker(db, set, cind.WithParallelism(8))
//
//	report, err := chk.Detect(ctx)            // full report, ctx-cancellable
//
//	for v, err := range chk.Violations(ctx) { // streaming: first-violation latency
//	    if err != nil { ... }                 // ctx cancelled mid-stream
//	    fmt.Println(v.Kind(), v.Constraint(), v.Witness())
//	    break                                 // stops the workers promptly
//	}
//
//	diff, err := chk.Apply(ctx, cind.InsertDelta("checking", t)) // incremental upkeep
//	res, err := chk.Repair(ctx, cind.RepairOptions{})            // constraint-driven repair
//
// # SQL backend
//
// Detection can run through any database/sql driver instead of the
// in-memory engine — the [9]-style SQL technique the paper's conclusion
// points at. The Checker mirrors its database into SQL tables, runs the
// detection queries of internal/sqlgen there (one candidate-group/member
// query pair per normal-form CFD row, one anti-join per normal-form CIND
// row) and folds the result rows back into the exact report the in-memory
// engine produces — same violations, same order, so Detect, Violations
// and WithLimit behave identically under either backend:
//
//	sqlDB, err := cind.OpenSQLBackend("mem:") // "driver:dsn"; see below
//	chk, err := cind.NewChecker(db, set, cind.WithSQLBackend(sqlDB))
//	report, err := chk.Detect(ctx)            // identical to the in-memory report
//
// "mem:" is the embedded zero-dependency engine (internal/memdb),
// implementing exactly the SQL subset the generated queries need; a spec
// like "sqlite:violations.db" works unchanged once a SQLite driver is
// linked in. Empty strings are mirrored as SQL NULL (the generated
// queries are NULL-aware throughout) and data must be ground. The CLI
// faces are cindviolate -backend driver:dsn for batch runs and cindserve
// -backend for serving; see the "SQL backend" section of PERFORMANCE.md
// for the cost comparison.
//
// # Reasoning
//
// The reasoning half — implication (Section 3) and consistency (Section 5)
// — lives on the ConstraintSet, with the same production affordances as
// detection: context cancellation, bounded parallel fan-out, deterministic
// answers, certificates for every definitive verdict:
//
//	out, err := set.ImpliesContext(ctx, psi, cind.ImplicationOptions{})
//	// out.Verdict: Implied (with out.Proof or a chase reason),
//	// NotImplied (with out.Counterexample), or Unknown (budgets tripped).
//
//	outs, err := set.ImplyAll(ctx, goals, cind.ImplicationOptions{}) // batch, goal order
//
//	min, err := set.Minimize(ctx, cind.ImplicationOptions{})
//	// min.Set: the surviving constraints, original order; min.Dropped:
//	// one implication certificate per removed (implied) CIND. Detect with
//	// min.Set and pay for fewer constraints — same clean/dirty verdict.
//
//	ans, err := set.CheckConsistencyContext(ctx, cind.CheckOptions{Seed: 1})
//	// ans.Consistent true is definitive (Theorem 5.1): every weak component
//	// of the reduced dependency graph yielded a witness, merged in ans.Witness.
//
// Over HTTP the same surface is served per dataset (see Serving below):
// POST /datasets/{name}/implication decides cind clauses from the request
// body against the dataset's Σ, GET /datasets/{name}/consistency runs the
// combined Checking (?k=, ?seed=, ?method=chase|sat), and POST
// /datasets/{name}/minimize returns the minimized spec text ready to PUT
// back, plus a certificate per dropped constraint. A disconnected client
// cancels the reasoning run mid-flight; cancellation answers 503.
//
// # Serving
//
// cmd/cindserve exposes the Checker over HTTP (stdlib only): named
// datasets pair an instance with a constraint set and a lazily-built
// Checker, and the endpoints map one-to-one onto the handle —
//
//	PUT  /datasets/{name}/constraints    constraint text → ParseConstraints
//	PUT  /datasets/{name}?relation=R     CSV rows → LoadCSV
//	GET  /datasets/{name}/violations     violation stream ← Violations(ctx)
//	POST /datasets/{name}/deltas         delta batch → Apply, returns the Diff
//	POST /datasets/{name}/repair         Repair change log
//
// plus health and expvar metrics (per-endpoint latency histograms under
// latency_us). The violation stream's encoding is negotiated by the
// Accept header: NDJSON by default — one violation per line, ending with
// a {"done":true,"count":N} trailer line so a complete stream is
// distinguishable from a cut connection — application/json for one
// batched document, or application/x-cind-frames for CRC-framed binary
// batches, the fastest transfer (~2.8x NDJSON; cindviolate -from
// converts it back to NDJSON). Encoding runs off the detection hot loop
// on a writer goroutine that flushes by size (32KiB) or deadline (50ms),
// first violation eagerly — so time-to-first-violation is engine
// latency, throughput is not bounded by per-line flushes, and a bounded
// backlog of 1024 pending violations keeps a fast engine from buffering
// an entire stream ahead of a slow client. A router's merged stream goes
// through the same writer, with the same flush promises. A client
// disconnect cancels the engine exactly like breaking out of a
// Violations loop; ?limit=n is the stream form of WithLimit (0 streams
// everything). See internal/server, internal/stream and the "Serving"
// section of PERFORMANCE.md.
//
// Datasets are in-memory by default; cindserve -data DIR makes them
// durable. Each dataset then owns a directory holding its constraint spec,
// periodic CSV snapshots and a CRC-framed write-ahead log of applied delta
// batches; on restart the snapshot is loaded and the WAL tail replayed
// through the same Checker.Apply path, so the recovered violation report
// is identical to a never-crashed process's (a kill -9 mid-append tears at
// most the unacknowledged tail frame, which recovery truncates). -fsync
// picks the sync policy: always, off, or a coalescing interval like 100ms.
// See internal/wal and the "Durability" section of PERFORMANCE.md.
//
// # Scaling out
//
// One process stops being enough before one dataset does, so cindserve
// also runs as a router: cindserve -route host1:8081,host2:8082 serves
// the exact same HTTP API but holds no data itself — it hash-partitions
// each dataset's tuples across the listed shard servers (CIND RHS
// relations are replicated so anti-joins stay shard-local, and a
// constraint driven by a replicated relation lives on the first shard
// alone, so no violation is computed twice), splits every
// delta batch by tuple key, and answers GET /violations by streaming all
// shards in the binary wire format and k-way merging them back into the
// single node's exact report order. Sharded and single-node serving are
// differentially tested to be byte-identical, violation for violation.
// The router serves the single node's handlers and answers reasoning
// calls itself from the full Σ it holds, /healthz fans in and degrades
// to 503 naming dead shards, and /metrics rolls up per-shard counters. Start each shard with -shard N so a shared -data root
// namespaces per-shard WALs. See internal/shard and the "Sharding"
// section of PERFORMANCE.md for the scaling curve.
//
// See the examples/ directory for runnable walkthroughs of the paper's
// scenarios, and PERFORMANCE.md for the detection engine's architecture and
// benchmark methodology.
package cind

import (
	"io"

	"cind/internal/cfd"
	"cind/internal/consistency"
	core "cind/internal/core"
	"cind/internal/detect"
	"cind/internal/gen"
	"cind/internal/implication"
	"cind/internal/inference"
	"cind/internal/instance"
	"cind/internal/parser"
	"cind/internal/pattern"
	"cind/internal/repair"
	"cind/internal/schema"
	"cind/internal/views"
)

// Schema-layer types.
type (
	// Schema is a database schema R = (R1, ..., Rn).
	Schema = schema.Schema
	// Relation is one relation schema.
	Relation = schema.Relation
	// Attribute is a named, domain-typed column.
	Attribute = schema.Attribute
	// Domain is a finite or infinite value domain.
	Domain = schema.Domain
	// Database is an in-memory instance of a schema.
	Database = instance.Database
	// Tuple is a value tuple.
	Tuple = instance.Tuple
)

// Constraint types.
type (
	// CIND is a conditional inclusion dependency — the paper's contribution.
	CIND = core.CIND
	// CINDRow is one pattern row of a CIND tableau.
	CINDRow = core.Row
	// CFD is a conditional functional dependency [9].
	CFD = cfd.CFD
	// CFDRow is one pattern row of a CFD tableau.
	CFDRow = cfd.Row
	// Symbol is a pattern symbol: a constant or the wildcard '_'.
	Symbol = pattern.Symbol
)

// Schema construction.
var (
	// InfiniteDomain returns a fresh infinite domain.
	InfiniteDomain = schema.Infinite
	// FiniteDomain returns a finite domain over the given values.
	FiniteDomain = schema.Finite
	// NewRelation builds a relation schema.
	NewRelation = schema.NewRelation
	// NewSchema builds a database schema.
	NewSchema = schema.New
	// NewDatabase returns an empty instance of a schema.
	NewDatabase = instance.NewDatabase
	// Const builds a constant value — for filling tuples field by field.
	Const = instance.Const
	// Consts builds a ground tuple from constants.
	Consts = instance.Consts
)

// Constraint construction.
var (
	// NewCIND builds and validates a CIND against a schema.
	NewCIND = core.New
	// NewCFD builds and validates a CFD against a schema.
	NewCFD = cfd.New
	// Wild is the pattern wildcard '_'.
	Wild = pattern.Wild
	// Sym builds a constant pattern symbol.
	Sym = pattern.Sym
)

// Spec is a parsed constraint file. Prefer ParseConstraints, which returns
// the ConstraintSet every entry point consumes; Spec remains for callers
// that want the raw per-kind slices.
type Spec = parser.Spec

// ParseSpec parses the textual constraint format (see internal/parser).
func ParseSpec(src string) (*Spec, error) { return parser.Parse(src) }

// MarshalSpec renders a Spec back to the textual format.
func MarshalSpec(s *Spec) string { return parser.Marshal(s) }

// Report collects detected violations: per kind in the CFD/CIND fields, and
// uniformly via Violations(). Reports list violations grouped per
// constraint in set order.
type Report = detect.Report

// LoadCSV loads CSV rows into the named relation of db.
func LoadCSV(db *Database, rel string, r io.Reader, header bool) error {
	return instance.LoadCSV(db, rel, r, header)
}

// Incremental detection (the write-heavy serving path): Checker.Apply keeps
// the detection engine's interned projection indexes resident and maintains
// the violation report under tuple-level deltas in time proportional to the
// affected projection groups, instead of re-running detection after every
// write.
type (
	// Delta is one tuple-level insert or delete.
	Delta = detect.Delta
	// ReportDiff is the net report change of one Apply batch.
	ReportDiff = detect.Diff
)

// InsertDelta builds a tuple-insert delta for Checker.Apply.
func InsertDelta(rel string, t Tuple) Delta { return detect.Ins(rel, t) }

// DeleteDelta builds a tuple-delete delta for Checker.Apply.
func DeleteDelta(rel string, t Tuple) Delta { return detect.Del(rel, t) }

// Witness builds the Theorem 3.2 witness: a nonempty database satisfying
// every CIND of sigma (CINDs are always consistent). maxTuples bounds the
// per-relation size; 0 uses the default cap.
func Witness(sch *Schema, sigma []*CIND, maxTuples int) (*Database, error) {
	return core.Witness(sch, sigma, maxTuples)
}

// Consistency checking (Section 5).
type (
	// CheckOptions tunes the Section 5 heuristics (N, K, T, K_CFD, method,
	// and the Parallel bound of the per-component fan-out).
	CheckOptions = consistency.Options
	// CheckAnswer is the verdict plus witness template.
	CheckAnswer = consistency.Answer
)

// CFD_Checking method selection — the two curves of Figure 10(a).
const (
	// CheckChase is the chase-based CFD_Checking (the default).
	CheckChase = consistency.Chase
	// CheckSAT is the SAT-based CFD_Checking.
	CheckSAT = consistency.SAT
)

// CheckConsistency runs the combined Checking algorithm (Figure 9). A true
// answer is definitive (Theorem 5.1); false means no witness was found.
func CheckConsistency(sch *Schema, cfds []*CFD, cinds []*CIND, opts CheckOptions) CheckAnswer {
	return consistency.Checking(sch, cfds, cinds, opts)
}

// RandomCheckConsistency runs the plain RandomChecking algorithm (Figure 5).
func RandomCheckConsistency(sch *Schema, cfds []*CFD, cinds []*CIND, opts CheckOptions) CheckAnswer {
	return consistency.RandomChecking(sch, cfds, cinds, opts)
}

// Implication analysis (Section 3).
type (
	// ImplicationOptions budgets the implication decision procedure.
	ImplicationOptions = implication.Options
	// ImplicationOutcome is the verdict plus proof or counterexample.
	ImplicationOutcome = implication.Outcome
	// Proof is a derivation in the inference system I.
	Proof = inference.Proof
)

// Implication verdicts.
const (
	Implied    = implication.Implied
	NotImplied = implication.NotImplied
	Unknown    = implication.Unknown
)

// DecideImplication determines whether sigma ⊨ psi, returning a proof in
// the inference system I (Theorem 3.3) or a counterexample database.
func DecideImplication(sch *Schema, sigma []*CIND, psi *CIND, opts ImplicationOptions) ImplicationOutcome {
	return implication.Decide(sch, sigma, psi, opts)
}

// MinimalCover drops members of sigma implied by the rest (conclusion,
// "minimal cover"). The result is equivalent to sigma.
func MinimalCover(sch *Schema, sigma []*CIND, opts ImplicationOptions) []*CIND {
	return implication.MinimalCover(sch, sigma, opts)
}

// Workload generation (Section 6).
type (
	// WorkloadConfig parameterises the Section 6 generator.
	WorkloadConfig = gen.Config
	// Workload is a generated schema plus constraint set.
	Workload = gen.Workload
)

// GenerateWorkload builds a random workload per the Section 6 setup.
func GenerateWorkload(cfg WorkloadConfig) *Workload { return gen.New(cfg) }

// Data repair (the application of Example 1.2; cf. [8]).
type (
	// RepairOptions bounds the repair loop.
	RepairOptions = repair.Options
	// RepairResult is the repaired copy plus the change log.
	RepairResult = repair.Result
)

// RepairDatabase produces a repaired copy of db: CFD violations are fixed
// by value modification, CIND violations by inserting the demanded tuples,
// iterating to a fixpoint. The input is never mutated.
func RepairDatabase(db *Database, cfds []*CFD, cinds []*CIND, opts RepairOptions) *RepairResult {
	return repair.Repair(db, cfds, cinds, opts)
}

// View propagation (the paper's "propagation through SQL views" direction).
type (
	// SelectionView is V = σ_{Attr=Value}(Base).
	SelectionView = views.SelectionView
)

// ExtendSchemaWithViews adds one relation per view to the schema.
func ExtendSchemaWithViews(sch *Schema, vs []SelectionView) (*Schema, error) {
	return views.ExtendSchema(sch, vs)
}

// PropagateCFDsToViews derives the CFDs that provably hold on the views.
func PropagateCFDsToViews(extended *Schema, vs []SelectionView, cfds []*CFD) ([]*CFD, error) {
	return views.PropagateCFDs(extended, vs, cfds)
}

// PropagateCINDsToViews derives the CINDs that provably hold on or into the
// views.
func PropagateCINDsToViews(extended *Schema, vs []SelectionView, cinds []*CIND) ([]*CIND, error) {
	return views.PropagateCINDs(extended, vs, cinds)
}
