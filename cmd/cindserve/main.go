// Command cindserve serves constraint checking over HTTP: named datasets
// (a database instance + a constraint set + a lazily-built cind.Checker)
// with CSV upload, NDJSON violation streaming, incremental delta batches
// and constraint-driven repair — the serving layer for the paper's goal of
// applying CFD/CIND detection to live data pipelines.
//
// Usage:
//
//	cindserve -addr 127.0.0.1:8080
//	cindserve -constraints bank.cind -load interest=interest.csv -dataset bank
//	cindserve -data /var/lib/cindserve -fsync always
//
// The optional -constraints/-load flags preload one dataset before serving
// (the same effect as PUT /datasets/{name}/constraints and PUT
// /datasets/{name}?relation=...). -addr with port 0 picks a free port; the
// bound address is printed as
//
//	cindserve: listening on http://127.0.0.1:PORT
//
// Durability: -data DIR makes datasets survive restarts. Each dataset gets
// a directory under DIR holding its constraint spec, periodic CSV
// snapshots and a CRC-framed write-ahead log of applied delta batches; on
// boot the newest snapshot is loaded and the WAL tail replayed through the
// same Checker.Apply path live requests use, so the recovered violation
// report is identical to a never-crashed process's. A torn WAL tail from a
// crash mid-append is detected by its CRC frame and truncated, never
// replayed. -fsync picks the sync policy: "always" (default — an
// acknowledged batch is a durable batch), "off" (leave flushing to the OS)
// or an interval like "100ms" (coalesce fsyncs, bounding loss to the
// window). Without -data the server is purely in-memory, as before.
//
// Endpoints (see internal/server):
//
//	PUT  /datasets/{name}/constraints    upload the constraint spec (?parallel=N)
//	PUT  /datasets/{name}?relation=R     upload CSV rows into relation R
//	GET  /datasets/{name}/violations     stream violations (?limit=N; 0 = all)
//	POST /datasets/{name}/deltas         apply a delta batch, returns the diff
//	POST /datasets/{name}/repair         compute a repair change log
//	POST /datasets/{name}/implication    decide Σ ⊨ ψ for each cind clause in the
//	                                     body: verdict + proof or counterexample
//	GET  /datasets/{name}/consistency    combined Checking (Fig 9): verdict +
//	                                     witness (?k=, ?seed=, ?method=chase|sat)
//	POST /datasets/{name}/minimize       drop implied constraints: minimized spec
//	                                     text + one certificate per drop
//	GET  /healthz, /metrics, /debug/vars health and expvar metrics
//
// The violations stream's encoding is negotiated by the Accept header
// (internal/stream): NDJSON by default — one violation object per line,
// ending with a {"done":true,"count":N} trailer line — application/json
// for a single batched document, or application/x-cind-frames for
// CRC-framed binary batches, the fastest transfer (cindviolate -from
// consumes it and re-emits NDJSON). Every encoding ends with an explicit
// trailer or error record, so clients can tell a complete stream from a
// cut connection. /metrics carries per-endpoint latency histograms
// (log2-bucketed, with p50/p99/max/mean summaries) under latency_us.
//
// The reasoning endpoints run with the request context: a disconnected
// client cancels the implication case-split fan-out, the chase and the SAT
// decision loop cooperatively, and a cancelled computation answers 503.
//
// An interrupt (Ctrl-C) or SIGTERM shuts down gracefully: in-flight
// violation streams are drained (each ends with a final {"error": ...}
// line), the listener closes, and in durable mode the WAL is flushed and
// closed. Exit status 0 on a clean shutdown.
//
// -backend driver:dsn runs every dataset's detection through a
// database/sql backend instead of the in-memory engine: relations are
// mirrored into per-dataset SQL databases and the paper's detection
// queries run there ("-backend mem:" uses the embedded zero-dependency
// engine; any linked driver works). Violation streams and ?limit= are
// identical to the in-memory engine's, violation for violation.
// -backend is exclusive with -route.
//
// Router mode: -route shard1,shard2,... serves the same HTTP API over a
// fleet of shard cindserves instead of a local checker (internal/shard).
// Datasets are hash-partitioned across the shards with CIND right-hand
// sides replicated, each shard holds only the constraints it owns (one
// driven by a replicated relation lives on shard 0 alone), violation
// streams are scattered to every shard as
// binary frames and k-way merged back into the exact single-node order,
// and the router answers reasoning calls itself from the constraint set
// it holds. Router endpoints carry the same latency histograms as a
// single node's. Repair answers 501 in router mode. Shards started for a
// router should pass -shard N (their index in the -route list), which
// namespaces -data so two shards never share a WAL directory:
//
//	cindserve -addr :8081 -shard 0 -data /var/lib/cind
//	cindserve -addr :8082 -shard 1 -data /var/lib/cind
//	cindserve -addr :8080 -route 127.0.0.1:8081,127.0.0.1:8082
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	cind "cind"

	"cind/internal/server"
	"cind/internal/shard"
	"cind/internal/wal"
)

type loadFlags []string

func (d *loadFlags) String() string { return strings.Join(*d, ",") }
func (d *loadFlags) Set(v string) error {
	*d = append(*d, v)
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	constraints := flag.String("constraints", "", "constraint file (.cind format) to preload")
	name := flag.String("dataset", "default", "dataset name for preloaded -constraints/-load")
	parallel := flag.Int("parallel", 0, "detection worker goroutines for the preloaded dataset (0 = GOMAXPROCS)")
	dataDir := flag.String("data", "", "data directory for durable datasets (WAL + snapshots); empty = in-memory")
	fsync := flag.String("fsync", "always", `WAL sync policy: "always", "off", or a flush interval like "100ms"`)
	backend := flag.String("backend", "", "run detection through SQL: driver:dsn, e.g. mem: (requires a linked driver)")
	route := flag.String("route", "", "comma-separated shard URLs: serve as a scatter-gather router instead of a local checker")
	shardIdx := flag.Int("shard", -1, "this node's index in its router's -route list; namespaces -data per shard")
	var load loadFlags
	flag.Var(&load, "load", "relation=file.csv to preload (repeatable; header row required)")
	flag.Parse()

	policy, err := wal.ParsePolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cindserve:", err)
		os.Exit(2)
	}
	var srv *server.Server
	if *route != "" {
		if *constraints != "" || len(load) > 0 || *dataDir != "" || *shardIdx >= 0 || *backend != "" {
			fmt.Fprintln(os.Stderr, "cindserve: -route is exclusive with -constraints/-load/-data/-shard/-backend")
			os.Exit(2)
		}
		shards := strings.FieldsFunc(*route, func(r rune) bool { return r == ',' })
		srv, err = server.NewRouter(server.RouterOptions{Shards: shards})
	} else {
		if *shardIdx >= 0 && *dataDir != "" {
			*dataDir = shard.DataDir(*dataDir, *shardIdx)
		}
		srv, err = server.NewWithOptions(server.Options{DataDir: *dataDir, Fsync: policy, Backend: *backend})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cindserve:", err)
		os.Exit(2)
	}
	if *route != "" {
		fmt.Printf("cindserve: routing shards %s\n", *route)
	}
	if *dataDir != "" {
		fmt.Printf("cindserve: durable datasets under %s (fsync=%s)\n", *dataDir, *fsync)
	}
	if *backend != "" {
		fmt.Printf("cindserve: detection through SQL backend %s\n", *backend)
	}
	if len(load) > 0 && *constraints == "" {
		fmt.Fprintln(os.Stderr, "cindserve: -load requires -constraints")
		os.Exit(2)
	}
	if *constraints != "" {
		src, err := os.ReadFile(*constraints)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cindserve:", err)
			os.Exit(2)
		}
		set, err := cind.ParseConstraints(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cindserve:", err)
			os.Exit(2)
		}
		if err := srv.CreateDataset(*name, set, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, "cindserve:", err)
			os.Exit(2)
		}
		for _, d := range load {
			rel, file, ok := strings.Cut(d, "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "cindserve: bad -load %q (want relation=file.csv)\n", d)
				os.Exit(2)
			}
			fh, err := os.Open(file)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cindserve:", err)
				os.Exit(2)
			}
			err = srv.LoadCSV(*name, rel, fh)
			fh.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, "cindserve:", err)
				os.Exit(2)
			}
		}
		fmt.Printf("cindserve: preloaded dataset %q from %s\n", *name, *constraints)
	}

	expvar.Publish("cindserve", srv.Vars())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cindserve:", err)
		os.Exit(2)
	}
	fmt.Printf("cindserve: listening on http://%s\n", ln.Addr())

	// NewHTTPServer wires BaseContext (Drain cancels in-flight streams) and
	// the slow-client header/idle timeouts.
	hs := server.NewHTTPServer(srv)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Println("cindserve: shutting down, draining streams")
		srv.Drain()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- hs.Shutdown(sctx)
	}()

	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "cindserve:", err)
		os.Exit(1)
	}
	if err := <-shutdownErr; err != nil {
		fmt.Fprintln(os.Stderr, "cindserve: shutdown:", err)
		os.Exit(1)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "cindserve: close wal:", err)
		os.Exit(1)
	}
	fmt.Println("cindserve: shut down cleanly")
}
