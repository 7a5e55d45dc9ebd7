// Package sqlbackend executes constraint detection through database/sql:
// the [9]-style SQL technique the paper's conclusion names as the ongoing
// line of work ("SQL-based techniques for detecting CIND violations in
// real-life data along the same line as [9]"). It mirrors an in-memory
// database into SQL tables (schema DDL plus bulk ingest), runs the
// executable queries of internal/sqlgen — candidate-group and member
// queries per normal-form CFD row, one anti-join per normal-form CIND row
// — and folds the result rows back into the violation report the
// in-memory engine would produce: the same violations, in the same order,
// so Checker.Detect/Violations and ?limit= behave identically under
// either backend.
//
// Any database/sql driver works. The container this module builds in is
// offline, so an external embedded engine (modernc.org/sqlite) cannot be
// vendored as the default; internal/memdb provides a zero-dependency
// embedded engine implementing exactly the SQL subset sqlgen emits, and
// Open accepts any registered driver by name — "sqlite:PATH" works
// unchanged once a SQLite driver is linked in.
//
// The value mapping is NULL-faithful: the in-memory engine's empty string
// ingests as SQL NULL and reads back as the empty string, which is why
// every query sqlgen emits is NULL-aware (see that package). Data must be
// ground — chase variables have no SQL representation and are rejected.
package sqlbackend

import (
	"context"
	"database/sql"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cind/internal/cfd"
	cind "cind/internal/core"
	"cind/internal/detect"
	"cind/internal/instance"
	"cind/internal/memdb"
	"cind/internal/sqlgen"
	"cind/internal/types"
)

// SeqColumn is the hidden column every relation mirror carries: the
// tuple's insertion rank in the source instance. Detection queries order
// by it, which is how SQL result sets are folded back into the in-memory
// engine's report order.
const SeqColumn = "__cind_seq"

var openSeq atomic.Int64

// Open opens a database handle from a backend spec of the form
// "driver:dsn" — e.g. "mem:" for the embedded zero-dependency engine or
// "sqlite:violations.db" when a SQLite driver is linked in. The driver
// must be registered with database/sql; unknown names error listing the
// registered drivers. An empty DSN with the embedded engine yields a
// fresh private database per Open.
func Open(spec string) (*sql.DB, error) {
	name, dsn, ok := strings.Cut(spec, ":")
	if !ok || name == "" {
		return nil, fmt.Errorf("sqlbackend: backend spec %q is not of the form driver:dsn", spec)
	}
	if !slices.Contains(sql.Drivers(), name) {
		return nil, fmt.Errorf("sqlbackend: no database/sql driver %q (registered: %s)",
			name, strings.Join(sql.Drivers(), ", "))
	}
	if name == memdb.DriverName && dsn == "" {
		dsn = fmt.Sprintf("sqlbackend-auto-%d", openSeq.Add(1))
	}
	return sql.Open(name, dsn)
}

// version mirrors instance.Instance.Version.
type version struct {
	nextSeq int64
	n       int
}

// Backend runs detection over one *sql.DB. It owns the mirror tables it
// creates (one per relation, named after it) and re-ingests a relation
// only when its source instance's Version changed. A Backend serializes
// its own calls; distinct Backends must not share mirror tables.
type Backend struct {
	db   *sql.DB
	mu   sync.Mutex
	seen map[string]version
}

// New returns a Backend over db. The handle is used, not owned: Close
// remains the caller's responsibility.
func New(db *sql.DB) *Backend {
	return &Backend{db: db, seen: make(map[string]version)}
}

// DB returns the underlying handle.
func (b *Backend) DB() *sql.DB { return b.db }

// Detect evaluates every constraint against src through SQL and returns
// the violation report: violations grouped per constraint in input order,
// exactly as detect.Run produces — the differential suite asserts
// equality violation for violation. A positive limit returns the first
// limit violations of the unlimited run (the CFD-then-CIND concatenation
// prefix, like detect.Options.Limit). ctx cancels between and inside
// queries via QueryContext.
func (b *Backend) Detect(ctx context.Context, src *instance.Database, cfds []*cfd.CFD, cinds []*cind.CIND, limit int) (*detect.Report, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.sync(ctx, src); err != nil {
		return nil, err
	}
	rep := &detect.Report{}
	full := func() bool { return limit > 0 && len(rep.CFD)+len(rep.CIND) >= limit }
	for _, c := range cfds {
		if full() {
			break
		}
		vs, err := b.cfdViolations(ctx, src, c)
		if err != nil {
			return nil, err
		}
		rep.CFD = append(rep.CFD, vs...)
	}
	for _, c := range cinds {
		if full() {
			break
		}
		vs, err := b.cindViolations(ctx, src, c)
		if err != nil {
			return nil, err
		}
		rep.CIND = append(rep.CIND, vs...)
	}
	return rep.Truncate(limit), nil
}

// sync brings the mirror tables up to date with src: tables are created
// on first sight of a relation and re-ingested whole when the instance's
// Version changed. Empty strings ingest as NULL (the engines' shared
// "no value"); chase variables are rejected.
func (b *Backend) sync(ctx context.Context, src *instance.Database) error {
	for _, rel := range src.Schema().Relations() {
		name := rel.Name()
		in := src.Instance(name)
		next, n := in.Version()
		cur := version{next, n}
		prev, known := b.seen[name]
		if known && prev == cur {
			continue
		}
		if !known {
			if rel.Has(SeqColumn) {
				return fmt.Errorf("sqlbackend: relation %s uses the reserved column %s", name, SeqColumn)
			}
			if _, err := b.db.ExecContext(ctx, sqlgen.RelationDDL(rel, SeqColumn)); err != nil {
				return fmt.Errorf("sqlbackend: create mirror %s: %w", name, err)
			}
		} else {
			if _, err := b.db.ExecContext(ctx, sqlgen.DeleteAllStmt(name)); err != nil {
				return fmt.Errorf("sqlbackend: clear mirror %s: %w", name, err)
			}
		}
		ins, err := b.db.PrepareContext(ctx, sqlgen.InsertStmt(rel))
		if err != nil {
			return fmt.Errorf("sqlbackend: prepare ingest %s: %w", name, err)
		}
		for seq, t := range in.Tuples() {
			args := make([]any, 0, rel.Arity()+1)
			for _, v := range t {
				if v.IsVar() {
					ins.Close()
					return fmt.Errorf("sqlbackend: relation %s holds chase variable %s; SQL detection requires ground data", name, v)
				}
				if s := v.Str(); s != "" {
					args = append(args, s)
				} else {
					args = append(args, nil)
				}
			}
			args = append(args, int64(seq))
			if _, err := ins.ExecContext(ctx, args...); err != nil {
				ins.Close()
				return fmt.Errorf("sqlbackend: ingest %s: %w", name, err)
			}
		}
		ins.Close()
		b.seen[name] = cur
	}
	return nil
}

// cfdViolations reproduces cfd.CFD.Violations through SQL. Per pattern
// row, the candidate violating X-groups are the union of the normal-form
// components' group-query results (a group violates iff some component
// flags it: a wildcard-RHS component fires on non-unique values, a
// constant-RHS component on a failing tuple). The members query then
// fetches each group in insertion order, and the reference
// partition-and-pair enumeration runs over those members alone — so the
// SQL engine does the scanning and grouping, and the output order is the
// reference order by construction (groups sorted by first-member rank).
func (b *Backend) cfdViolations(ctx context.Context, src *instance.Database, c *cfd.CFD) ([]cfd.Violation, error) {
	in := src.Instance(c.Rel)
	rel := in.Relation()
	tuples := in.Tuples()
	yi := rel.Cols(c.Y)
	norm := c.NormalForm()
	nY := len(c.Y)

	membersQ, nparams := sqlgen.MembersQuery(c, nil, SeqColumn)
	members, err := b.db.PrepareContext(ctx, membersQ)
	if err != nil {
		return nil, fmt.Errorf("sqlbackend: %s: prepare members: %w", c.ID, err)
	}
	defer members.Close()

	var out []cfd.Violation
	for ri, row := range c.Rows {
		// Candidate groups: union of the row's component group queries,
		// first flagged first. Keys are the group's X values with NULL
		// read back as the empty string.
		var keys [][]any
		seen := map[string]bool{}
		for j := 0; j < nY; j++ {
			gq := sqlgen.GroupQuery(norm[ri*nY+j])
			rows, err := b.db.QueryContext(ctx, gq)
			if err != nil {
				return nil, fmt.Errorf("sqlbackend: %s: group query: %w", c.ID, err)
			}
			for rows.Next() {
				if len(c.X) == 0 {
					// The query returns a row iff the single implicit
					// group violates.
					if !seen[""] {
						seen[""] = true
						keys = append(keys, nil)
					}
					continue
				}
				vals := make([]sql.NullString, len(c.X))
				ptrs := make([]any, len(c.X))
				for i := range vals {
					ptrs[i] = &vals[i]
				}
				if err := rows.Scan(ptrs...); err != nil {
					rows.Close()
					return nil, fmt.Errorf("sqlbackend: %s: scan group: %w", c.ID, err)
				}
				key, params := groupKey(vals)
				if !seen[key] {
					seen[key] = true
					keys = append(keys, params)
				}
			}
			if err := rows.Close(); err != nil {
				return nil, err
			}
			if err := rows.Err(); err != nil {
				return nil, fmt.Errorf("sqlbackend: %s: group query: %w", c.ID, err)
			}
		}
		if len(keys) == 0 {
			continue
		}
		// Fetch each candidate group's members in insertion order.
		type group struct {
			members []instance.Tuple
			first   int64
		}
		groups := make([]group, 0, len(keys))
		for _, params := range keys {
			args := make([]any, 0, nparams)
			for _, p := range params {
				args = append(args, p, p) // null-safe equality binds twice
			}
			rows, err := members.QueryContext(ctx, args...)
			if err != nil {
				return nil, fmt.Errorf("sqlbackend: %s: members query: %w", c.ID, err)
			}
			g := group{first: -1}
			for rows.Next() {
				var seq int64
				if err := rows.Scan(&seq); err != nil {
					rows.Close()
					return nil, fmt.Errorf("sqlbackend: %s: scan member: %w", c.ID, err)
				}
				if seq < 0 || seq >= int64(len(tuples)) {
					rows.Close()
					return nil, fmt.Errorf("sqlbackend: %s: mirror row %d outside instance %s (stale mirror?)", c.ID, seq, c.Rel)
				}
				if g.first < 0 {
					g.first = seq
				}
				g.members = append(g.members, tuples[seq])
			}
			if err := rows.Close(); err != nil {
				return nil, err
			}
			if err := rows.Err(); err != nil {
				return nil, fmt.Errorf("sqlbackend: %s: members query: %w", c.ID, err)
			}
			if len(g.members) > 0 {
				groups = append(groups, g)
			}
		}
		// First-seen group order = ascending first-member rank.
		sort.Slice(groups, func(i, j int) bool { return groups[i].first < groups[j].first })

		// Reference enumeration (cfd.CFD.Violations) over each group's
		// members: partition by Y projection, pairs within a
		// pattern-failing partition first, cross-partition pairs after.
		for _, g := range groups {
			parts := map[string][]instance.Tuple{}
			var pOrder []string
			patOK := map[string]bool{}
			for _, t := range g.members {
				y := t.Project(yi)
				pk := projKey(y)
				if _, ok := parts[pk]; !ok {
					pOrder = append(pOrder, pk)
					patOK[pk] = row.RHS.Matches(y)
				}
				parts[pk] = append(parts[pk], t)
			}
			for _, pk := range pOrder {
				if patOK[pk] {
					continue
				}
				part := parts[pk]
				for i := 0; i < len(part); i++ {
					for j := i; j < len(part); j++ {
						out = append(out, cfd.Violation{CFD: c, RowIdx: ri, T1: part[i], T2: part[j]})
					}
				}
			}
			for pi := 0; pi < len(pOrder); pi++ {
				for pj := pi + 1; pj < len(pOrder); pj++ {
					for _, t1 := range parts[pOrder[pi]] {
						for _, t2 := range parts[pOrder[pj]] {
							out = append(out, cfd.Violation{CFD: c, RowIdx: ri, T1: t1, T2: t2})
						}
					}
				}
			}
		}
	}
	return out, nil
}

// cindViolations reproduces cind.CIND.Violations through SQL: one
// anti-join per pattern row (its normal-form component — Proposition 3.1
// keeps them aligned one to one), ordered by insertion rank, which is
// exactly the reference's LHS scan order.
func (b *Backend) cindViolations(ctx context.Context, src *instance.Database, c *cind.CIND) ([]cind.Violation, error) {
	in := src.Instance(c.LHSRel)
	tuples := in.Tuples()
	norm := c.NormalForm()
	var out []cind.Violation
	for ri := range c.Rows {
		q := sqlgen.AntiJoinQuery(norm[ri], nil, SeqColumn)
		rows, err := b.db.QueryContext(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("sqlbackend: %s: anti-join: %w", c.ID, err)
		}
		for rows.Next() {
			var seq int64
			if err := rows.Scan(&seq); err != nil {
				rows.Close()
				return nil, fmt.Errorf("sqlbackend: %s: scan: %w", c.ID, err)
			}
			if seq < 0 || seq >= int64(len(tuples)) {
				rows.Close()
				return nil, fmt.Errorf("sqlbackend: %s: mirror row %d outside instance %s (stale mirror?)", c.ID, seq, c.LHSRel)
			}
			out = append(out, cind.Violation{CIND: c, RowIdx: ri, T: tuples[seq]})
		}
		if err := rows.Close(); err != nil {
			return nil, err
		}
		if err := rows.Err(); err != nil {
			return nil, fmt.Errorf("sqlbackend: %s: anti-join: %w", c.ID, err)
		}
	}
	return out, nil
}

// groupKey encodes a scanned group row into a dedup key plus the query
// parameters probing that group (NULL stays nil; non-NULL values pass as
// strings).
func groupKey(vals []sql.NullString) (string, []any) {
	var b []byte
	params := make([]any, 0, len(vals))
	for _, v := range vals {
		if v.Valid {
			b = append(b, 's')
			b = append(b, v.String...)
			params = append(params, v.String)
		} else {
			b = append(b, 'n')
			params = append(params, nil)
		}
		b = append(b, 0)
	}
	return string(b), params
}

// projKey mirrors the reference implementations' projection encoding.
func projKey(vals []types.Value) string {
	var b []byte
	for _, v := range vals {
		b = types.AppendKey(b, v)
	}
	return string(b)
}
