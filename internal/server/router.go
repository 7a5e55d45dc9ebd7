package server

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	cind "cind"

	"cind/internal/conc"
	"cind/internal/detect"
	"cind/internal/shard"
	"cind/internal/stream"
)

// Router serves the cindserve dataset API over a fleet of shard servers
// instead of a local Checker. It speaks the same HTTP surface a single
// node does — same routes, same request and response shapes, same
// violation stream encodings — so clients cannot tell (and cindviolate
// does not care) whether a URL names one node or a cluster.
//
// Per dataset the router computes a shard.Plan once at create time and
// from then on:
//
//   - splits CSV loads and delta batches into per-shard sub-batches
//     (replicated relations go everywhere, partitioned relations to their
//     hash shard) and fans them out;
//   - answers GET /violations by scattering binary-encoded streams to
//     every shard and k-way merging them through shard.Merge into the
//     exact single-node report order, re-encoded in whatever encoding the
//     client negotiated;
//   - mirrors the fleet's tuple insertion order in a shard.Order so every
//     wire violation's global merge key can be reconstructed router-side.
//
// Reasoning calls (implication, consistency, minimize) depend only on the
// constraint set, which every shard holds in full, so they proxy to the
// dataset's home shard on a consistent-hash ring. Repair is the one
// endpoint that needs the whole instance on one machine and answers 501.
//
// Concurrency: one RWMutex per dataset. A gather holds the read lock for
// the whole scatter-and-merge, mutations take the write lock — the same
// reader/writer discipline a single-node Checker documents, so a stream
// observes one atomic batch boundary, never a half-applied batch.
type Router struct {
	shards []string
	client *http.Client
	ring   *shard.Ring
	mux    *http.ServeMux

	baseCtx context.Context
	drainFn context.CancelFunc

	mu       sync.RWMutex
	datasets map[string]*routed

	vars      *expvar.Map
	nDatasets *expvar.Int
	nRequests *expvar.Int
	nStreamed *expvar.Int
	nDeltas   *expvar.Int
	nProxied  *expvar.Int
	nScatters *expvar.Int
	nCopyErrs *expvar.Int
}

// routed is the router's per-dataset state.
type routed struct {
	name string
	set  *cind.ConstraintSet
	plan *shard.Plan

	// mu serializes mutations (loads, deltas) against gathers: gathers
	// hold it shared for the full scatter-and-merge, mutations hold it
	// exclusively, so order always matches what the shards hold.
	mu    sync.RWMutex
	order *shard.Order
}

// RouterOptions configures NewRouter.
type RouterOptions struct {
	// Shards are the shard servers' base URLs, e.g. "http://10.0.0.1:8081".
	// Order matters: shard 0 owns the constraints whose violations every
	// shard would report identically, and tuple placement hashes modulo
	// the slice length. At least one is required.
	Shards []string
	// Client overrides the HTTP client used for all shard traffic. The
	// default has no overall timeout — violation streams are legitimately
	// long-lived — and relies on per-request contexts for cancellation.
	Client *http.Client
}

// NewRouter returns a Router over the given shard fleet.
func NewRouter(opts RouterOptions) (*Router, error) {
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
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		shards:    shards,
		client:    client,
		ring:      shard.NewRing(len(shards)),
		baseCtx:   ctx,
		drainFn:   cancel,
		datasets:  make(map[string]*routed),
		vars:      new(expvar.Map).Init(),
		nDatasets: new(expvar.Int),
		nRequests: new(expvar.Int),
		nStreamed: new(expvar.Int),
		nDeltas:   new(expvar.Int),
		nProxied:  new(expvar.Int),
		nScatters: new(expvar.Int),
		nCopyErrs: new(expvar.Int),
	}
	rt.vars.Set("datasets", rt.nDatasets)
	rt.vars.Set("requests", rt.nRequests)
	rt.vars.Set("violations_streamed", rt.nStreamed)
	rt.vars.Set("deltas_applied", rt.nDeltas)
	rt.vars.Set("reasoning_proxied", rt.nProxied)
	rt.vars.Set("scatter_streams", rt.nScatters)
	rt.vars.Set("proxy_copy_errors", rt.nCopyErrs)
	rt.vars.Set("shards", expvar.Func(func() any { return len(shards) }))

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /datasets", rt.handleList)
	mux.HandleFunc("PUT /datasets/{name}/constraints", rt.handleCreate)
	mux.HandleFunc("PUT /datasets/{name}", rt.handlePutData)
	mux.HandleFunc("GET /datasets/{name}", rt.handleInfo)
	mux.HandleFunc("DELETE /datasets/{name}", rt.handleDelete)
	mux.HandleFunc("GET /datasets/{name}/violations", rt.handleViolations)
	mux.HandleFunc("POST /datasets/{name}/deltas", rt.handleDeltas)
	mux.HandleFunc("POST /datasets/{name}/repair", rt.handleRepair)
	mux.HandleFunc("POST /datasets/{name}/implication", rt.handleProxy)
	mux.HandleFunc("GET /datasets/{name}/consistency", rt.handleProxy)
	mux.HandleFunc("POST /datasets/{name}/minimize", rt.handleProxy)
	rt.mux = mux
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.nRequests.Add(1)
	rt.mux.ServeHTTP(w, r)
}

// BaseContext is the value for http.Server.BaseContext, as on Server.
func (rt *Router) BaseContext(net.Listener) context.Context { return rt.baseCtx }

// Drain cancels the base context: in-flight gathers end with a terminal
// error record and their scatter requests are cancelled.
func (rt *Router) Drain() { rt.drainFn() }

// Vars returns the router's metric map.
func (rt *Router) Vars() expvar.Var { return rt.vars }

// Shards returns the fleet's base URLs, in placement order.
func (rt *Router) Shards() []string { return append([]string(nil), rt.shards...) }

// NewRouterHTTPServer wraps a Router in an http.Server with the same
// timeout posture NewHTTPServer gives a single node.
func NewRouterHTTPServer(rt *Router) *http.Server {
	return &http.Server{
		Handler:           rt,
		BaseContext:       rt.BaseContext,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// boundContext mirrors Server.boundContext for the router.
func (rt *Router) boundContext(r *http.Request) (context.Context, func()) {
	ctx, cancel := context.WithCancel(r.Context())
	unbind := context.AfterFunc(rt.baseCtx, cancel)
	return ctx, func() { unbind(); cancel() }
}

func (rt *Router) dataset(name string) (*routed, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	d, ok := rt.datasets[name]
	return d, ok
}

func (rt *Router) findDataset(w http.ResponseWriter, r *http.Request) (*routed, bool) {
	name := r.PathValue("name")
	d, ok := rt.dataset(name)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no dataset %q", name))
	}
	return d, ok
}

// shardDo issues one request to one shard, wrapping transport errors with
// the shard's address so fan-out failures name the culprit.
func (rt *Router) shardDo(ctx context.Context, method, base, path string, body []byte, accept string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", base, err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", base, err)
	}
	return resp, nil
}

// shardJSON issues a request expecting a 2xx JSON response, decodes it
// into out (may be nil), and turns any other status into an error naming
// the shard and relaying its error body.
func (rt *Router) shardJSON(ctx context.Context, method, base, path string, body []byte, out any) error {
	resp, err := rt.shardDo(ctx, method, base, path, body, "")
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

// firstError returns the first non-nil error of a fan-out.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- control-plane handlers ---

// handleHealth fans /healthz out to every shard. All alive answers 200;
// any dead shard degrades the fleet to 503 with the dead addresses named,
// so an operator (or the ci smoke) can tell exactly which node to revive.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	errs := conc.FanOut(len(rt.shards), func(i int) error {
		return rt.shardJSON(ctx, http.MethodGet, rt.shards[i], "/healthz", nil, nil)
	})
	dead := make([]string, 0)
	for i, err := range errs {
		if err != nil {
			dead = append(dead, rt.shards[i])
		}
	}
	rt.mu.RLock()
	n := len(rt.datasets)
	rt.mu.RUnlock()
	if len(dead) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "degraded", "dead": dead, "shards": len(rt.shards), "datasets": n,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "shards": len(rt.shards), "datasets": n,
	})
}

// handleMetrics reports the router's own counters plus every shard's
// /metrics verbatim under its address, and a cross-shard roll-up summing
// every numeric counter — the fleet-wide totals a single node's /metrics
// would have shown.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	perShard := make([]json.RawMessage, len(rt.shards))
	conc.FanOut(len(rt.shards), func(i int) error {
		var raw json.RawMessage
		if err := rt.shardJSON(ctx, http.MethodGet, rt.shards[i], "/metrics", nil, &raw); err != nil {
			msg, _ := json.Marshal(map[string]string{"error": err.Error()})
			raw = msg
		}
		perShard[i] = raw
		return nil
	})
	rollup := make(map[string]float64)
	shardsOut := make(map[string]json.RawMessage, len(rt.shards))
	for i, raw := range perShard {
		shardsOut[rt.shards[i]] = raw
		var m map[string]any
		if json.Unmarshal(raw, &m) != nil {
			continue
		}
		for k, v := range m {
			if f, ok := v.(float64); ok {
				rollup[k] += f
			}
		}
	}
	var router json.RawMessage = []byte(rt.vars.String())
	writeJSON(w, http.StatusOK, map[string]any{
		"router": router, "shards": shardsOut, "rollup": rollup,
	})
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	names := make([]string, 0, len(rt.datasets))
	for name := range rt.datasets {
		names = append(names, name)
	}
	rt.mu.RUnlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"datasets": names})
}

// --- dataset lifecycle ---

// handleCreate parses the constraint set, computes the shard plan, and
// creates the dataset on every shard — pinned to parallel=1 and primed
// into incremental mode with an empty delta batch, which is what makes
// every shard's violation stream deterministically report-ordered, the
// property the gather's k-way merge rests on. Creation is idempotent
// (PUT replaces), so a partially failed create is repaired by retrying.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	if p := r.URL.Query().Get("parallel"); p != "" {
		// Accepted for interface parity, but shards always run at
		// parallel=1: stream determinism is what the merge needs.
		if n, err := strconv.Atoi(p); err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad parallel %q", p))
			return
		}
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxConstraintsBody))
	if err != nil {
		bodyError(w, err)
		return
	}
	set, err := cind.ParseConstraints(string(body))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	plan, err := shard.NewPlan(set, len(rt.shards))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	name := r.PathValue("name")
	ctx, stop := rt.boundContext(r)
	defer stop()
	path := "/datasets/" + name
	errs := conc.FanOut(len(rt.shards), func(i int) error {
		if err := rt.shardJSON(ctx, http.MethodPut, rt.shards[i], path+"/constraints?parallel=1", body, nil); err != nil {
			return err
		}
		return rt.shardJSON(ctx, http.MethodPost, rt.shards[i], path+"/deltas", []byte("[]"), nil)
	})
	if err := firstError(errs); err != nil {
		httpError(w, http.StatusBadGateway, fmt.Errorf("create dataset %q: %w", name, err))
		return
	}
	d := &routed{name: name, set: set, plan: plan, order: shard.NewOrder(plan)}
	rt.mu.Lock()
	if _, existed := rt.datasets[name]; !existed {
		rt.nDatasets.Add(1)
	}
	rt.datasets[name] = d
	rt.mu.Unlock()
	rels := make([]string, 0, set.Schema().Len())
	for _, rel := range set.Schema().Relations() {
		rels = append(rels, rel.Name())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset": name, "constraints": set.Len(), "relations": rels,
	})
}

func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := rt.dataset(name); !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no dataset %q", name))
		return
	}
	ctx, stop := rt.boundContext(r)
	defer stop()
	errs := conc.FanOut(len(rt.shards), func(i int) error {
		resp, err := rt.shardDo(ctx, http.MethodDelete, rt.shards[i], "/datasets/"+name, nil, "")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		// 404 is fine: a shard that lost the dataset (say, to a partially
		// failed create) is already where the delete wants it.
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
			return fmt.Errorf("shard %s: DELETE: HTTP %d", rt.shards[i], resp.StatusCode)
		}
		return nil
	})
	if err := firstError(errs); err != nil {
		// Keep the dataset routed: the operator retries the delete once
		// the shard is back, instead of stranding its replicas.
		httpError(w, http.StatusBadGateway, fmt.Errorf("delete dataset %q: %w", name, err))
		return
	}
	rt.mu.Lock()
	if _, ok := rt.datasets[name]; ok {
		delete(rt.datasets, name)
		rt.nDatasets.Add(-1)
	}
	rt.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (rt *Router) handleInfo(w http.ResponseWriter, r *http.Request) {
	d, ok := rt.findDataset(w, r)
	if !ok {
		return
	}
	d.mu.RLock()
	rels := make(map[string]int, d.set.Schema().Len())
	for _, rel := range d.set.Schema().Relations() {
		rels[rel.Name()] = d.order.Len(rel.Name())
	}
	d.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":     d.name,
		"constraints": d.set.Len(),
		"relations":   rels,
		// Shards are primed into incremental mode at create time.
		"incremental": true,
	})
}

// --- data plane: loads and deltas ---

// handlePutData scatter-loads a CSV upload: rows are validated router-side
// with the same hardened loader a single node uses, committed to the
// order tracker, then forwarded as per-shard CSV slices (full copies for
// a replicated relation). Instances are sets, so a retry after a partial
// fan-out failure converges: shards that already hold their slice no-op.
func (rt *Router) handlePutData(w http.ResponseWriter, r *http.Request) {
	d, ok := rt.findDataset(w, r)
	if !ok {
		return
	}
	rel := r.URL.Query().Get("relation")
	if rel == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing ?relation= query parameter"))
		return
	}
	relSchema, ok := d.set.Schema().Relation(rel)
	if !ok {
		httpError(w, http.StatusBadRequest, fmt.Errorf("dataset %q has no relation %q", d.name, rel))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCSVBody))
	if err != nil {
		bodyError(w, err)
		return
	}
	scratch := cind.NewDatabase(d.set.Schema())
	if err := cind.LoadCSV(scratch, rel, bytes.NewReader(body), true); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	tuples := scratch.Instance(rel).Tuples()

	ctx, stop := rt.boundContext(r)
	defer stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	// Commit insertion ranks before the fan-out: if a shard fails and the
	// client retries, the surviving shards' insertion order already agrees
	// with these ranks, and re-inserts are no-ops on both sides.
	for _, t := range tuples {
		d.order.Insert(rel, t)
	}
	parts := make([][]cind.Tuple, len(rt.shards))
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
	durable := true
	sawDurable := false
	var storageErrs []string
	var respMu sync.Mutex
	errs := conc.FanOut(len(rt.shards), func(i int) error {
		if len(parts[i]) == 0 {
			return nil
		}
		csvBody, err := marshalCSV(relSchema.AttrNames(), parts[i])
		if err != nil {
			return fmt.Errorf("shard %s: %w", rt.shards[i], err)
		}
		var out struct {
			Durable      *bool  `json:"durable"`
			StorageError string `json:"storage_error"`
		}
		if err := rt.shardJSON(ctx, http.MethodPut, rt.shards[i], path, csvBody, &out); err != nil {
			return err
		}
		respMu.Lock()
		defer respMu.Unlock()
		if out.Durable != nil {
			sawDurable = true
			durable = durable && *out.Durable
		}
		if out.StorageError != "" {
			storageErrs = append(storageErrs, fmt.Sprintf("shard %s: %s", rt.shards[i], out.StorageError))
		}
		return nil
	})
	if err := firstError(errs); err != nil {
		httpError(w, http.StatusBadGateway, fmt.Errorf("load %q into %q: %w", rel, d.name, err))
		return
	}
	resp := map[string]any{"dataset": d.name, "relation": rel, "tuples": d.order.Len(rel)}
	if sawDurable && (!durable || len(storageErrs) > 0) {
		resp["durable"] = false
		resp["storage_error"] = strings.Join(storageErrs, "; ")
		w.Header().Set("X-Applied", "true")
	}
	writeJSON(w, http.StatusOK, resp)
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

// handleDeltas splits one atomic batch into per-shard sub-batches, fans
// them out, and merges the per-shard diffs back into the exact diff a
// single node would have returned: removed violations keyed against the
// pre-batch order, added violations against the post-batch order, each
// side k-way merged with the same comparator the violation gather uses.
func (rt *Router) handleDeltas(w http.ResponseWriter, r *http.Request) {
	d, ok := rt.findDataset(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDeltasBody))
	if err != nil {
		bodyError(w, err)
		return
	}
	deltas, err := decodeDeltas(body, d.set)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx, stop := rt.boundContext(r)
	defer stop()
	d.mu.Lock()
	defer d.mu.Unlock()

	parts := make([][]cind.Delta, len(rt.shards))
	for _, dl := range deltas {
		if sh := d.plan.ShardOf(dl.Rel, dl.Tuple); sh >= 0 {
			parts[sh] = append(parts[sh], dl)
		} else {
			for i := range parts {
				parts[i] = append(parts[i], dl)
			}
		}
	}
	diffs := make([]diffWire, len(rt.shards))
	touched := make([]bool, len(rt.shards))
	path := "/datasets/" + d.name + "/deltas"
	errs := conc.FanOut(len(rt.shards), func(i int) error {
		if len(parts[i]) == 0 {
			return nil
		}
		touched[i] = true
		sub, err := json.Marshal(map[string]any{"deltas": encodeDeltas(parts[i])})
		if err != nil {
			return fmt.Errorf("shard %s: %w", rt.shards[i], err)
		}
		return rt.shardJSON(ctx, http.MethodPost, rt.shards[i], path, sub, &diffs[i])
	})
	if err := firstError(errs); err != nil {
		// The order tracker was not advanced: a client retry re-sends the
		// batch, shards that already applied it no-op (set semantics), and
		// the tracker catches up then.
		httpError(w, http.StatusBadGateway, fmt.Errorf("apply deltas to %q: %w", d.name, err))
		return
	}

	// Removed violations existed before the batch: key them against the
	// pre-batch order, then advance the tracker, then key the added side
	// against the post-batch order — the same two states the single-node
	// diff's two sides are ordered by.
	removed, err := d.mergeDiffSide(diffs, touched, func(dw *diffWire) []violationWire { return dw.Removed })
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("merge removed diff: %w", err))
		return
	}
	for _, dl := range deltas {
		d.order.Apply(dl)
	}
	added, err := d.mergeDiffSide(diffs, touched, func(dw *diffWire) []violationWire { return dw.Added })
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("merge added diff: %w", err))
		return
	}
	rt.nDeltas.Add(int64(len(deltas)))

	resp := diffWire{Applied: len(deltas), Added: added, Removed: removed}
	durable := true
	sawDurable := false
	var storageErrs []string
	for i := range diffs {
		if !touched[i] {
			continue
		}
		if diffs[i].Durable != nil {
			sawDurable = true
			durable = durable && *diffs[i].Durable
		}
		if diffs[i].StorageError != "" {
			storageErrs = append(storageErrs, fmt.Sprintf("shard %s: %s", rt.shards[i], diffs[i].StorageError))
		}
	}
	if sawDurable {
		resp.Durable = &durable
	}
	if len(storageErrs) > 0 {
		resp.StorageError = strings.Join(storageErrs, "; ")
		w.Header().Set("X-Applied", "true")
	}
	writeJSON(w, http.StatusOK, resp)
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
		func(si int, v *stream.Violation) (mk detect.MergeKey, keep bool, err error) {
			if !d.plan.Keep(idx[si], v.Constraint) {
				return mk, false, nil
			}
			k, err := d.order.Key(v)
			return k, err == nil, err
		},
		func(v *stream.Violation) bool {
			merged = append(merged, *v)
			return true
		})
	if err != nil {
		return nil, err
	}
	return merged, nil
}

// --- data plane: the violation gather ---

// handleViolations is the scatter-gather read path: one binary-encoded
// stream per shard, k-way merged into the single-node global order and
// re-encoded in whatever encoding the client negotiated. Binary frames are
// the inter-node wire format regardless of what the client asked for —
// they decode fastest and round-trip values exactly.
func (rt *Router) handleViolations(w http.ResponseWriter, r *http.Request) {
	d, ok := rt.findDataset(w, r)
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

	ctx, stop := rt.boundContext(r)
	defer stop()
	scatterCtx, cancelScatter := context.WithCancel(ctx)
	defer cancelScatter()

	// The read lock spans the entire scatter and merge: every shard's
	// stream is taken at the same batch boundary, so the merge sees one
	// consistent snapshot — the single-node atomicity contract.
	d.mu.RLock()
	defer d.mu.RUnlock()

	path := "/datasets/" + d.name + "/violations"
	resps := make([]*http.Response, len(rt.shards))
	errs := conc.FanOut(len(rt.shards), func(i int) error {
		resp, err := rt.shardDo(scatterCtx, http.MethodGet, rt.shards[i], path, nil, stream.Binary.ContentType())
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			defer resp.Body.Close()
			return fmt.Errorf("shard %s: GET %s: %s", rt.shards[i], path, shardErrorText(resp))
		}
		resps[i] = resp
		return nil
	})
	defer func() {
		cancelScatter()
		for _, resp := range resps {
			if resp != nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
				resp.Body.Close()
			}
		}
	}()
	if err := firstError(errs); err != nil {
		httpError(w, http.StatusBadGateway, fmt.Errorf("scatter violations of %q: %w", d.name, err))
		return
	}

	w.Header().Set("Content-Type", enc.ContentType())
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	rt.nScatters.Add(1)

	ww := stream.NewWireWriter(w, fl, enc)

	sources := make([]shard.Source, len(resps))
	for i, resp := range resps {
		sources[i] = stream.NewDecoder(resp.Body, stream.Binary)
	}
	writeFailed := false
	n := 0
	_, err := shard.Merge(sources,
		func(si int, v *stream.Violation) (mk detect.MergeKey, keep bool, err error) {
			if !d.plan.Keep(si, v.Constraint) {
				return mk, false, nil
			}
			k, err := d.order.Key(v)
			return k, err == nil, err
		},
		func(v *stream.Violation) bool {
			if !ww.Send(v) {
				writeFailed = true
				return false
			}
			n++
			return limit <= 0 || n < limit
		})
	// Count the stream before its terminal record goes out, so /metrics
	// agrees with any stream a client has finished reading.
	rt.nStreamed.Add(ww.Count())
	switch {
	case err == nil:
		ww.Close()
	case err == shard.ErrStopped && !writeFailed:
		// The client's limit: a clean end, trailer and all, exactly like
		// the single-node limit break.
		ww.Close()
	case writeFailed:
		ww.CloseError("client write failed")
	default:
		ww.CloseError(err.Error())
	}
}

// --- proxied endpoints ---

// handleProxy forwards a reasoning call to the dataset's home shard on
// the consistent-hash ring. Reasoning depends only on the constraint set,
// which every shard holds in full, so any shard answers identically; the
// ring spreads concurrent reasoning over the fleet and keeps a dataset's
// calls on one node's warm caches.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	d, ok := rt.findDataset(w, r)
	if !ok {
		return
	}
	base := rt.shards[rt.ring.Pick(d.name)]
	ctx, stop := rt.boundContext(r)
	defer stop()
	url := base + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, r.Body)
	if err != nil {
		httpError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", base, err))
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		httpError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", base, err))
		return
	}
	defer resp.Body.Close()
	rt.nProxied.Add(1)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	// The status line is on the wire; a copy failure cannot change it, but
	// a silently truncated proxy body is the exact failure mode the
	// stream-framing work exists to catch — count it so operators can see
	// shard links dropping mid-response.
	if _, err := io.Copy(w, resp.Body); err != nil {
		rt.nCopyErrs.Add(1)
	}
}

// handleRepair: repair chases the whole instance toward a consistent
// state, a global computation over tuples the router deliberately never
// holds in one place. Run it against a single node.
func (rt *Router) handleRepair(w http.ResponseWriter, r *http.Request) {
	httpError(w, http.StatusNotImplemented,
		fmt.Errorf("repair is not available in router mode: it needs the whole instance on one node"))
}
