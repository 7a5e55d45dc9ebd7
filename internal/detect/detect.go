// Package detect is the batched, interned, parallel violation-detection
// engine — the production hot path of the library's data-cleaning story
// (Examples 1.2 and 2.2 of the paper: catching the 10.5% interest-rate
// error at scale).
//
// The per-constraint reference implementations (cfd.CFD.Violations,
// core.CIND.Violations) evaluate each constraint independently: every CFD
// re-scans its relation per tableau row, and every projection is hashed
// through an allocating string key. This engine instead:
//
//  1. interns every constant into an integer symbol ID (types.Interner), so
//     projection keys are sequences of uint64 codes rather than freshly
//     built strings; the coded relations and compiled groups form an
//     immutable Plan, which a caller may keep and evaluate again while the
//     database is unchanged (Plan.Current);
//  2. groups CFDs by (relation, X attribute list) and CINDs by
//     (RHS relation, Y attribute list), building each shared projection
//     index over the instance once and evaluating all tableau rows of all
//     constraints in the group against it;
//  3. fans the groups out over a bounded worker pool (default GOMAXPROCS)
//     and merges the per-constraint results deterministically, in input
//     order;
//  4. supports a Limit that stops pair enumeration early, so violation-heavy
//     (dirty) data cannot force materialising O(n²) pairs.
//
// The engine returns exactly the violations, in exactly the order, of the
// reference implementations run constraint by constraint — a property the
// package tests assert on the paper's bank example and on generated
// workloads. The reference implementations remain the semantic ground truth
// (they sit below this package in the import graph and double as the
// differential-testing oracle); callers wanting bulk detection should come
// through here, via the cind facade's Checker.
package detect

import (
	"context"
	"fmt"
	"strings"

	"cind/internal/cfd"
	"cind/internal/conc"
	core "cind/internal/core"
	"cind/internal/instance"
)

// Options tunes a detection run.
type Options struct {
	// Parallel is the number of worker goroutines evaluating detection
	// groups; 0 means GOMAXPROCS, 1 forces sequential evaluation. The
	// result is identical regardless.
	Parallel int
	// Limit, when positive, caps the number of violations reported: the
	// result is the first Limit violations of the unlimited run, and pair
	// enumeration stops early once the cap is unreachable. 0 means
	// unlimited.
	Limit int
}

func (o Options) workers(units int) int { return conc.Workers(o.Parallel, units) }

// Report collects the violations of one run, per constraint kind, in input
// constraint order. Reports list every CFD violation before every CIND
// violation; Total, String, Violations and Truncate all follow that
// concatenation, as does the Limit option.
type Report struct {
	CFD  []cfd.Violation
	CIND []core.Violation
}

// Total returns the number of violations found.
func (r *Report) Total() int { return len(r.CFD) + len(r.CIND) }

// Clean reports whether no violation was found.
func (r *Report) Clean() bool { return r.Total() == 0 }

// Violations returns the report's contents as the unified sum type, CFD
// violations first. The per-kind CFD/CIND fields remain the primary
// storage; this is the kind-agnostic view for consumers that dispatch on
// Violation.Kind.
func (r *Report) Violations() []Violation {
	out := make([]Violation, 0, r.Total())
	for _, v := range r.CFD {
		out = append(out, CFDViolation(v))
	}
	for _, v := range r.CIND {
		out = append(out, CINDViolation(v))
	}
	return out
}

// Truncate returns the first limit violations of the report in report
// order (the same prefix the Limit option produces), sharing the
// underlying slices; the receiver is not mutated. A non-positive limit, or
// one the report does not reach, returns the receiver unchanged.
func (r *Report) Truncate(limit int) *Report {
	if limit <= 0 || r.Total() <= limit {
		return r
	}
	out := &Report{CFD: r.CFD, CIND: r.CIND}
	if len(out.CFD) > limit {
		out.CFD = out.CFD[:limit]
	}
	if rest := limit - len(out.CFD); len(out.CIND) > rest {
		out.CIND = out.CIND[:rest]
	}
	return out
}

// String renders the report one violation per line.
func (r *Report) String() string {
	if r.Clean() {
		return "clean: no violations"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d violation(s):\n", r.Total())
	for _, v := range r.CFD {
		fmt.Fprintf(&b, "  [cfd]  %s\n", v)
	}
	for _, v := range r.CIND {
		fmt.Fprintf(&b, "  [cind] %s\n", v)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Run evaluates every constraint against the database through the batched
// engine. The result lists violations grouped by constraint in input order;
// within one constraint the order matches the reference per-constraint
// implementation.
func Run(db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND, opts Options) *Report {
	res, _ := RunContext(context.Background(), db, cfds, cinds, opts)
	return res
}

// stopFunc compiles a context into a cheap polling predicate the hot loops
// can call: a nil-Done context (Background) costs a single nil check.
func stopFunc(ctx context.Context) func() bool { return conc.StopFunc(ctx) }

// RunContext is Run with cooperative cancellation: it builds a fresh Plan
// and evaluates it (Plan.Run), so a cancelled detection run stops the
// worker pool promptly instead of materialising the full report first. On
// cancellation the partial result is discarded and ctx's error returned.
func RunContext(ctx context.Context, db *instance.Database, cfds []*cfd.CFD, cinds []*core.CIND, opts Options) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return NewPlan(db, cfds, cinds).Run(ctx, opts)
}

// CFDViolations runs a single CFD through the engine — the batched
// counterpart of the reference c.Violations(db).
func CFDViolations(db *instance.Database, c *cfd.CFD) []cfd.Violation {
	return Run(db, []*cfd.CFD{c}, nil, Options{Parallel: 1}).CFD
}

// CINDViolations runs a single CIND through the engine — the batched
// counterpart of the reference c.Violations(db).
func CINDViolations(db *instance.Database, c *core.CIND) []core.Violation {
	return Run(db, nil, []*core.CIND{c}, Options{Parallel: 1}).CIND
}
