package server

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cind "cind"

	"cind/internal/conc"
	"cind/internal/detect"
	"cind/internal/shard"
	"cind/internal/stream"
)

// RouterOptions configures NewRouter.
type RouterOptions struct {
	// Shards are the shard servers' base URLs, e.g. "http://10.0.0.1:8081".
	// Order matters: shard 0 alone holds the constraints whose violations
	// every shard would report identically, and tuple placement hashes
	// modulo the slice length. At least one is required.
	Shards []string
}

// NewRouter returns a Server whose datasets are routed over a fleet of
// shard servers instead of served by a local Checker. It speaks the same
// HTTP surface through the same handlers — same routes, same request and
// response shapes, same violation stream encodings — so clients cannot
// tell (and cindviolate does not care) whether a URL names one node or a
// cluster.
//
// Per dataset the router computes a shard.Plan once at create time,
// gives each shard only the constraints it owns (shard.Plan.Owned: a
// constraint whose driving relation is replicated lives on shard 0
// alone), and from then on:
//
//   - splits CSV loads and delta batches into per-shard sub-batches
//     (replicated relations go everywhere, partitioned relations to their
//     hash shard) and fans them out;
//   - answers GET /violations by scattering binary-encoded streams to
//     every shard and k-way merging their records, undecoded, through
//     shard.Merge into the exact single-node report order: a binary
//     client gets each record with its constraint and tuple ids
//     renumbered into the output stream's own tables, an NDJSON or JSON
//     client gets it converted — a violation of a constraint its shard does not
//     own fails the stream, since the shard then holds a stale Σ, and so
//     does a malformed record, whose whole frame is never relayed. Like a
//     single node it keeps the merged body per encoding from a key's
//     second unlimited read, keyed on its own write generation and the
//     shards' entity tags; a later read sends each shard its tag, and
//     when every shard answers 304 writes the kept body without a merge.
//     It tags its own streams and honours If-None-Match as a node does;
//   - mirrors the fleet's tuple insertion order in a shard.Order so every
//     wire violation's global merge key can be reconstructed router-side.
//
// The reasoning endpoints depend only on the constraint set, which the
// router holds in full, so it answers them itself. Repair is the one
// endpoint that needs the whole instance on one machine and answers 501.
// A failed fan-out answers 502. /healthz and /metrics fan out to the
// fleet.
func NewRouter(opts RouterOptions) (*Server, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("server: router needs at least one shard")
	}
	shards := make([]string, len(opts.Shards))
	for i, s := range opts.Shards {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if s == "" {
			return nil, fmt.Errorf("server: empty shard address at index %d", i)
		}
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		shards[i] = s
	}
	// The client has no overall timeout — violation streams are
	// legitimately long-lived — and relies on per-request contexts for
	// cancellation.
	s := newServer()
	f := &fleet{shards: shards, client: &http.Client{}, nScatters: new(expvar.Int), memos: s.memos}
	s.create = f.create
	s.vars.Set("scatter_streams", f.nScatters)
	s.vars.Set("shards", expvar.Func(func() any { return len(shards) }))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		f.handleHealth(w, r, s.datasetCount())
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		f.handleMetrics(w, r, s.vars)
	})
	return s, nil
}

// NewRouterHTTPServer wraps a router in the http.Server NewHTTPServer
// gives a single node.
func NewRouterHTTPServer(s *Server) *http.Server { return NewHTTPServer(s) }

// fleet is a router's shard servers and the client every fan-out uses.
type fleet struct {
	shards    []string
	client    *http.Client
	nScatters *expvar.Int // violation gathers opened, lifetime
	memos     *memoSource // the router's, for its datasets' kept bodies
}

// do issues one request to one shard, wrapping transport errors with the
// shard's address so fan-out failures name the culprit. header holds
// name/value pairs to set on the request.
func (f *fleet) do(ctx context.Context, method, base, path string, body []byte, header ...string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", base, err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", base, err)
	}
	return resp, nil
}

// doJSON issues a request expecting a 2xx JSON response, decodes it into out
// (may be nil), and turns any other status into an error naming the shard
// and relaying its error body.
func (f *fleet) doJSON(ctx context.Context, method, base, path string, body []byte, out any) error {
	resp, err := f.do(ctx, method, base, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("shard %s: %s %s: %s", base, method, path, shardErrorText(resp))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("shard %s: decode %s response: %w", base, path, err)
	}
	return nil
}

// shardErrorText summarizes a non-2xx shard response.
func shardErrorText(resp *http.Response) string {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var ew errorWire
	if json.Unmarshal(b, &ew) == nil && ew.Error != "" {
		return fmt.Sprintf("HTTP %d: %s", resp.StatusCode, ew.Error)
	}
	return fmt.Sprintf("HTTP %d", resp.StatusCode)
}

// fanOut runs fn against every shard concurrently. The first failure
// comes back as the 502 every failed fan-out answers, prefixed with what.
func (f *fleet) fanOut(what string, fn func(i int, base string) error) error {
	errs := conc.FanOut(len(f.shards), func(i int) error { return fn(i, f.shards[i]) })
	for _, err := range errs {
		if err != nil {
			return &statusError{code: http.StatusBadGateway, err: fmt.Errorf("%s: %w", what, err)}
		}
	}
	return nil
}

// handleHealth fans /healthz out to every shard. All alive answers 200;
// any dead shard degrades the fleet to 503 with the dead addresses named,
// so an operator (or the ci smoke) can tell exactly which node to revive.
func (f *fleet) handleHealth(w http.ResponseWriter, r *http.Request, datasets int) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	errs := conc.FanOut(len(f.shards), func(i int) error {
		return f.doJSON(ctx, http.MethodGet, f.shards[i], "/healthz", nil, nil)
	})
	dead := make([]string, 0)
	for i, err := range errs {
		if err != nil {
			dead = append(dead, f.shards[i])
		}
	}
	if len(dead) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "degraded", "dead": dead, "shards": len(f.shards), "datasets": datasets,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "shards": len(f.shards), "datasets": datasets,
	})
}

// handleMetrics reports the router's own metric map plus every shard's
// /metrics verbatim under its address, and a cross-shard roll-up summing
// every numeric counter — the fleet-wide totals a single node's /metrics
// would have shown.
func (f *fleet) handleMetrics(w http.ResponseWriter, r *http.Request, own *expvar.Map) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	perShard := make([]json.RawMessage, len(f.shards))
	conc.FanOut(len(f.shards), func(i int) error {
		var raw json.RawMessage
		if err := f.doJSON(ctx, http.MethodGet, f.shards[i], "/metrics", nil, &raw); err != nil {
			msg, _ := json.Marshal(map[string]string{"error": err.Error()})
			raw = msg
		}
		perShard[i] = raw
		return nil
	})
	rollup := make(map[string]float64)
	shardsOut := make(map[string]json.RawMessage, len(f.shards))
	for i, raw := range perShard {
		shardsOut[f.shards[i]] = raw
		var m map[string]any
		if json.Unmarshal(raw, &m) != nil {
			continue
		}
		for k, v := range m {
			if n, ok := v.(float64); ok {
				rollup[k] += n
			}
		}
	}
	var router json.RawMessage = []byte(own.String())
	writeJSON(w, http.StatusOK, map[string]any{
		"router": router, "shards": shardsOut, "rollup": rollup,
	})
}

// routed is a router's dataset: the shard plan and the order tracker that
// mirrors the fleet's tuple insertion order.
type routed struct {
	datasetMeta
	fleet *fleet
	plan  *shard.Plan

	// mu serializes mutations (loads, deltas) against gathers: gathers
	// hold it shared for the full scatter-and-merge, mutations hold it
	// exclusively, so order always matches what the shards hold — the
	// reader/writer discipline a single-node Checker documents, so a
	// stream observes one atomic batch boundary, never a half-applied
	// batch. A memo hit holds it only across its conditional scatter.
	mu    sync.RWMutex
	order *shard.Order
	gen   uint64 // mutations attempted, failed fan-outs included

	// memo keeps merged stream bodies, keyed on gen and the shards' tags.
	memo *bodyMemo[routedKey]

	// sizes is the order tracker's tuple counts, republished by every
	// mutation before it releases mu: info reads it without taking mu,
	// which a gather holds for a whole stream and a queued writer then
	// closes to new readers.
	sizes atomic.Pointer[map[string]int]
}

// create is a router's dataset factory: it computes the shard plan and
// creates the dataset on every shard with the constraints that shard owns
// (the full schema either way, so every placed relation loads), then
// primes it into incremental mode with an empty delta batch, as a single
// node is after its first delta. The gather's k-way merge rests on every
// shard streaming in report order, which a node does at any worker count,
// so the shards keep their own default. Creation is idempotent (PUT
// replaces), so a partially failed create is repaired by retrying.
func (f *fleet) create(ctx context.Context, name string, set *cind.ConstraintSet, _ int) (dataset, error) {
	plan, err := shard.NewPlan(set, len(f.shards))
	if err != nil {
		return nil, &statusError{code: http.StatusBadRequest, err: err}
	}
	path := "/datasets/" + name
	err = f.fanOut(fmt.Sprintf("create dataset %q", name), func(i int, base string) error {
		spec := []byte(cind.MarshalConstraints(plan.Owned(i)))
		if err := f.doJSON(ctx, http.MethodPut, base, path+"/constraints", spec, nil); err != nil {
			return err
		}
		return f.doJSON(ctx, http.MethodPost, base, path+"/deltas", []byte("[]"), nil)
	})
	if err != nil {
		return nil, err
	}
	d := &routed{datasetMeta: newMeta(name, set), fleet: f, plan: plan, order: shard.NewOrder(plan),
		memo: newMemo[routedKey](f.memos)}
	d.publishSizes()
	return d, nil
}

// publishSizes snapshots the order tracker's tuple counts for
// relationSizes. Caller holds mu exclusively (or owns d outright).
func (d *routed) publishSizes() {
	sizes := make(map[string]int, d.set.Schema().Len())
	for _, rel := range d.set.Schema().Relations() {
		sizes[rel.Name()] = d.order.Len(rel.Name())
	}
	d.sizes.Store(&sizes)
}

// relationSizes serves the counts the last mutation published. Shards are
// primed into incremental mode at create time.
func (d *routed) relationSizes() (map[string]int, bool) { return *d.sizes.Load(), true }

func (d *routed) remove(ctx context.Context) error {
	// 404 is fine: a shard that lost the dataset (say, to a partially
	// failed create) is already where the delete wants it.
	return d.fleet.fanOut(fmt.Sprintf("delete dataset %q", d.name), func(_ int, base string) error {
		resp, err := d.fleet.do(ctx, http.MethodDelete, base, "/datasets/"+d.name, nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
			return fmt.Errorf("shard %s: DELETE: HTTP %d", base, resp.StatusCode)
		}
		return nil
	})
}

func (*routed) close() error { return nil }

// repair chases the whole instance toward a consistent state, a global
// computation over tuples the router deliberately never holds in one
// place. Run it against a single node.
func (*routed) repair(context.Context, cind.RepairOptions) (*cind.RepairResult, error) {
	return nil, &statusError{code: http.StatusNotImplemented,
		err: errors.New("repair is not available in router mode: it needs the whole instance on one node")}
}

// loadCSV scatter-loads a CSV upload: rows are validated router-side with
// the same hardened loader a single node uses, committed to the order
// tracker, then forwarded as per-shard CSV slices (full copies for a
// replicated relation). Instances are sets, so a retry after a partial
// fan-out failure converges: shards that already hold their slice no-op.
func (d *routed) loadCSV(ctx context.Context, rel string, r io.Reader) error {
	relSchema, ok := d.set.Schema().Relation(rel)
	if !ok {
		return fmt.Errorf("dataset %q has no relation %q", d.name, rel)
	}
	body, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	scratch := cind.NewDatabase(d.set.Schema())
	if err := cind.LoadCSV(scratch, rel, bytes.NewReader(body), true); err != nil {
		return err
	}
	tuples := scratch.Instance(rel).Tuples()

	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.publishSizes()
	d.gen++
	// Commit insertion ranks before the fan-out: if a shard fails and the
	// client retries, the surviving shards' insertion order already agrees
	// with these ranks, and re-inserts are no-ops on both sides.
	for _, t := range tuples {
		d.order.Insert(rel, t)
	}
	parts := make([][]cind.Tuple, len(d.fleet.shards))
	if pl := d.plan.Placement(rel); pl.Partitioned {
		for _, t := range tuples {
			sh := d.plan.ShardOf(rel, t)
			parts[sh] = append(parts[sh], t)
		}
	} else {
		for i := range parts {
			parts[i] = tuples
		}
	}
	path := "/datasets/" + d.name + "?relation=" + rel
	var dur durabilityFold
	err = d.fleet.fanOut(fmt.Sprintf("load %q into %q", rel, d.name), func(i int, base string) error {
		if len(parts[i]) == 0 {
			return nil
		}
		csvBody, err := marshalCSV(relSchema.AttrNames(), parts[i])
		if err != nil {
			return fmt.Errorf("shard %s: %w", base, err)
		}
		var out struct {
			Durable      *bool  `json:"durable"`
			StorageError string `json:"storage_error"`
		}
		if err := d.fleet.doJSON(ctx, http.MethodPut, base, path, csvBody, &out); err != nil {
			return err
		}
		dur.add(base, out.Durable, out.StorageError)
		return nil
	})
	if err != nil {
		return err
	}
	_, err = dur.result()
	return err
}

// durabilityFold folds the shards' answers to one mutation into the
// single-node durability contract: durable is reported when any shard
// reports it, and any shard's storage failure makes the whole mutation
// live but not durably logged.
type durabilityFold struct {
	mu          sync.Mutex
	persisted   bool // some shard reported durable at all
	notDurable  bool // some shard reported durable: false
	storageErrs []string
}

func (f *durabilityFold) add(base string, durable *bool, storageErr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if durable != nil {
		f.persisted = true
		f.notDurable = f.notDurable || !*durable
	}
	if storageErr != "" {
		f.storageErrs = append(f.storageErrs, fmt.Sprintf("shard %s: %s", base, storageErr))
	}
}

// result returns the folded durable member (nil when no shard persists)
// and a *notDurableError when any shard's storage failed.
func (f *durabilityFold) result() (*bool, error) {
	var durable *bool
	if f.persisted {
		ok := !f.notDurable
		durable = &ok
	}
	if len(f.storageErrs) > 0 {
		return durable, &notDurableError{err: errors.New(strings.Join(f.storageErrs, "; "))}
	}
	return durable, nil
}

// marshalCSV renders tuples as a header-first CSV document, the format
// PUT ?relation= accepts.
func marshalCSV(header []string, tuples []cind.Tuple) ([]byte, error) {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(header); err != nil {
		return nil, err
	}
	for _, t := range tuples {
		if err := cw.Write(tupleStrings(t)); err != nil {
			return nil, err
		}
	}
	cw.Flush()
	return buf.Bytes(), cw.Error()
}

// applyDeltas splits one atomic batch into per-shard sub-batches, fans
// them out, and merges the per-shard diffs back into the exact diff a
// single node would have returned: removed violations keyed against the
// pre-batch order, added violations against the post-batch order, each
// side k-way merged with the same comparator the violation gather uses.
func (d *routed) applyDeltas(ctx context.Context, deltas []cind.Delta) (diffWire, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gen++

	parts := make([][]cind.Delta, len(d.fleet.shards))
	for _, dl := range deltas {
		if sh := d.plan.ShardOf(dl.Rel, dl.Tuple); sh >= 0 {
			parts[sh] = append(parts[sh], dl)
		} else {
			for i := range parts {
				parts[i] = append(parts[i], dl)
			}
		}
	}
	diffs := make([]diffWire, len(d.fleet.shards))
	touched := make([]bool, len(d.fleet.shards))
	path := "/datasets/" + d.name + "/deltas"
	var dur durabilityFold
	err := d.fleet.fanOut(fmt.Sprintf("apply deltas to %q", d.name), func(i int, base string) error {
		if len(parts[i]) == 0 {
			return nil
		}
		touched[i] = true
		sub, err := json.Marshal(map[string]any{"deltas": encodeDeltas(parts[i])})
		if err != nil {
			return fmt.Errorf("shard %s: %w", base, err)
		}
		if err := d.fleet.doJSON(ctx, http.MethodPost, base, path, sub, &diffs[i]); err != nil {
			return err
		}
		dur.add(base, diffs[i].Durable, diffs[i].StorageError)
		return nil
	})
	if err != nil {
		// The order tracker was not advanced: a client retry re-sends the
		// batch, shards that already applied it no-op (set semantics), and
		// the tracker catches up then.
		return diffWire{}, err
	}

	// Removed violations existed before the batch: key them against the
	// pre-batch order, then advance the tracker, then key the added side
	// against the post-batch order — the same two states the single-node
	// diff's two sides are ordered by. A merge failure is the fleet's
	// fault — a shard answered a diff the plan cannot place — so it
	// answers 502 like a failed fan-out.
	removed, err := d.mergeDiffSide(diffs, touched, func(dw *diffWire) []violationWire { return dw.Removed })
	if err != nil {
		return diffWire{}, &statusError{code: http.StatusBadGateway, err: fmt.Errorf("merge removed diff: %w", err)}
	}
	for _, dl := range deltas {
		d.order.Apply(dl)
	}
	d.publishSizes()
	added, err := d.mergeDiffSide(diffs, touched, func(dw *diffWire) []violationWire { return dw.Added })
	if err != nil {
		return diffWire{}, &statusError{code: http.StatusBadGateway, err: fmt.Errorf("merge added diff: %w", err)}
	}
	out := diffWire{Added: added, Removed: removed}
	out.Durable, err = dur.result()
	return out, err
}

// sliceSource adapts an in-memory diff side to the gather's Source.
type sliceSource struct {
	vs []violationWire
	i  int
}

func (s *sliceSource) Next() (stream.Violation, error) {
	if s.i >= len(s.vs) {
		return stream.Violation{}, io.EOF
	}
	v := s.vs[s.i]
	s.i++
	return v, nil
}

// mergeDiffSide merges one side of the per-shard diffs into global report
// order, keyed against the order tracker's current state. Caller holds
// d.mu exclusively.
func (d *routed) mergeDiffSide(diffs []diffWire, touched []bool, side func(*diffWire) []violationWire) ([]violationWire, error) {
	sources := make([]shard.Source, 0, len(diffs))
	idx := make([]int, 0, len(diffs))
	total := 0
	for i := range diffs {
		if !touched[i] {
			continue
		}
		vs := side(&diffs[i])
		sources = append(sources, &sliceSource{vs: vs})
		idx = append(idx, i)
		total += len(vs)
	}
	merged := make([]violationWire, 0, total)
	_, err := shard.Merge(sources,
		func(si int, v *stream.Violation) (detect.MergeKey, bool, error) { return d.keyOf(idx[si], v) },
		func(v *stream.Violation) bool {
			merged = append(merged, *v)
			return true
		})
	if err != nil {
		return nil, err
	}
	return merged, nil
}

// keyOf is the diff merge's key function: the violation's global merge
// key, or an error when the shard that streamed it does not own its
// constraint — a shard holding a stale Σ, whose answer the router cannot
// trust. Caller holds d.mu.
func (d *routed) keyOf(shardIdx int, v *stream.Violation) (detect.MergeKey, bool, error) {
	k, err := d.order.Key(v)
	if err == nil && !d.plan.Owns(shardIdx, k) {
		err = errNotOwned(v.Constraint)
	}
	return k, err == nil, err
}

// recordKey is keyOf for the gather's undecoded records.
func (d *routed) recordKey(shardIdx int, r *stream.Record) (detect.MergeKey, bool, error) {
	k, err := d.order.RecordKey(r)
	if err == nil && !d.plan.Owns(shardIdx, k) {
		err = errNotOwned(string(r.Constraint()))
	}
	return k, err == nil, err
}

func errNotOwned(id string) error {
	return fmt.Errorf("violation of %q, a constraint the shard does not own", id)
}

// recordSource reads a shard's binary stream as undecoded records.
type recordSource struct{ d *stream.Decoder }

func (s recordSource) Next() (stream.Record, error) { return s.d.NextRecord() }

// routedKey keys a routed dataset's kept bodies: the router's generation
// and the entity tags its shards' streams carried, in shard order, joined
// by newlines (which no header value holds). A shard's tag names the
// version it streamed, so a key names one merged report.
type routedKey struct {
	gen  uint64
	tags string
}

// gather is an opened scatter: one binary-encoded stream per shard, all
// taken under the dataset's read lock, which release gives back. Binary
// frames are the inter-node wire format regardless of what the client
// asked for — they key without decoding, relay into a binary response
// with only their ids rewritten, and round-trip values exactly.
type gather struct {
	memoRead[routedKey]
	d      *routed
	rd     violationRead
	resps  []*http.Response
	cancel context.CancelFunc
}

// violations answers a warm unlimited read from the router's kept body
// when every shard confirms, by answering 304 to the tag of the stream the
// body was merged from, that its version is still current: a conditional
// scatter under the read lock, released before the body is written. It
// scatters conditionally only when that body is kept, or the client's
// If-None-Match names it. Any other read, or a shard that answers 200,
// gathers as a cold read does.
func (d *routed) violations(ctx context.Context, rd violationRead) (violationStream, error) {
	scatterCtx, cancel := context.WithCancel(ctx)
	// The read lock spans the entire scatter and merge: every shard's
	// stream is taken at the same batch boundary, so the merge sees one
	// consistent snapshot — the single-node atomicity contract.
	d.mu.RLock()
	g := &gather{d: d, rd: rd, resps: make([]*http.Response, len(d.fleet.shards)), cancel: cancel}
	if rd.limit == 0 {
		if r := d.memo.current(rd.enc); r.key.tags != "" && (r.kept.body != nil || noneMatch(rd.ifNoneMatch, r.tag)) {
			if err := g.scatter(scatterCtx, strings.Split(r.key.tags, "\n")); err != nil {
				g.release()
				return nil, err
			}
			if r.key.gen == d.gen && g.notModified() {
				g.release()
				return &keptStream{r}, nil
			}
		}
	}
	if err := g.scatter(scatterCtx, nil); err != nil {
		g.release()
		return nil, err
	}
	if key, ok := g.key(); ok && rd.limit == 0 {
		g.memoRead = d.memo.open(key, rd.enc)
	}
	d.fleet.nScatters.Add(1)
	return g, nil
}

// scatter opens a binary stream from every shard that has none open yet,
// asking each for its stream only if it no longer carries tags[i] when
// tags is non-nil. A shard that answers 304 is left without a stream.
func (g *gather) scatter(ctx context.Context, tags []string) error {
	path := "/datasets/" + g.d.name + "/violations"
	return g.d.fleet.fanOut(fmt.Sprintf("scatter violations of %q", g.d.name), func(i int, base string) error {
		if g.resps[i] != nil {
			return nil
		}
		header := []string{"Accept", stream.Binary.ContentType()}
		if tags != nil {
			header = append(header, "If-None-Match", tags[i])
		}
		resp, err := g.d.fleet.do(ctx, http.MethodGet, base, path, nil, header...)
		if err != nil {
			return err
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			g.resps[i] = resp
			return nil
		case resp.StatusCode == http.StatusNotModified && tags != nil:
			resp.Body.Close()
			return nil
		}
		defer resp.Body.Close()
		return fmt.Errorf("shard %s: GET %s: %s", base, path, shardErrorText(resp))
	})
}

// notModified reports whether every shard answered 304.
func (g *gather) notModified() bool {
	for _, resp := range g.resps {
		if resp != nil {
			return false
		}
	}
	return true
}

// key is the memo key of the shard streams gathered, if every shard
// tagged its stream.
func (g *gather) key() (routedKey, bool) {
	tags := make([]string, len(g.resps))
	for i, resp := range g.resps {
		if tags[i] = resp.Header.Get("ETag"); tags[i] == "" {
			return routedKey{}, false
		}
	}
	return routedKey{gen: g.d.gen, tags: strings.Join(tags, "\n")}, true
}

// run k-way merges the shard streams' undecoded records into the
// single-node global order and hands them to a relay writer, which
// renumbers them into a binary stream or converts them for an NDJSON or
// JSON client, off the merge loop.
func (g *gather) run(out io.Writer, fl stream.Flusher) (streamWriter, int64, string) {
	d := g.d
	limit := g.rd.limit
	sw := stream.NewRelayWriter(out, fl, g.rd.enc)
	g.keep(sw)
	sources := make([]shard.Stream[stream.Record], len(g.resps))
	for i, resp := range g.resps {
		sources[i] = recordSource{stream.NewDecoder(resp.Body, stream.Binary)}
	}
	writeFailed := false
	n := 0
	_, err := shard.Merge(sources, d.recordKey,
		func(r *stream.Record) bool {
			if !sw.Send(*r) {
				writeFailed = true
				return false
			}
			n++
			return limit <= 0 || n < limit
		})
	// ErrStopped without a write failure is the client's limit: a clean
	// end, trailer and all, exactly like the single-node limit break.
	endErr := ""
	switch {
	case writeFailed:
		endErr = "client write failed"
	case err != nil && err != shard.ErrStopped:
		endErr = err.Error()
	}
	return sw, int64(n), endErr
}

func (g *gather) release() {
	g.cancel()
	for _, resp := range g.resps {
		if resp != nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
		}
	}
	g.d.mu.RUnlock()
}

// keptStream is a routed memo hit: the kept body, written with the
// dataset's lock already released.
type keptStream struct{ memoRead[routedKey] }

func (s *keptStream) run(out io.Writer, fl stream.Flusher) (streamWriter, int64, string) {
	k := s.hit(out, fl)
	return k, k.count, k.writeViolations()
}

func (*keptStream) release() {}
