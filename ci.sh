#!/bin/sh
# ci.sh — the repository's tier-1 gate plus vet, the cindlint
# static-analysis suite, the race detector, coverage floors, an examples
# smoke run, and a short fuzz smoke.
# Usage: ./ci.sh
set -eu

# check_coverage_floor <pkg> <floor>: fail if the package's total
# statement coverage is below floor percent. The floor table lives at
# the single `done <<EOF` feed below — add a line there, not a loop.
check_coverage_floor() {
	pkg="$1"
	floor="$2"
	echo "== coverage floor: $pkg >= ${floor}%"
	cover_out="$(mktemp)"
	go test -coverprofile="$cover_out" "./$pkg" > /dev/null
	pct="$(go tool cover -func="$cover_out" | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')"
	rm -f "$cover_out"
	echo "$pkg coverage: ${pct}%"
	if [ "$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p + 0 < f + 0) ? 1 : 0 }')" = "1" ]; then
		echo "ci: $pkg coverage ${pct}% is below the ${floor}% floor" >&2
		exit 1
	fi
}

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# gofmt -l lists every file whose formatting differs from gofmt's; any
# output fails the gate. The file list is git's, tracked plus untracked
# but not ignored, so git-ignored build trees are never walked.
echo "== gofmt -l"
unformatted="$(git ls-files -co --exclude-standard '*.go' | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "ci: gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# cindlint prints its summary line (packages, diagnostics, bare ignores,
# active ignores) and exits non-zero on any diagnostic or reason-less
# ignore directive. See LINT.md for the invariants it enforces.
echo "== cindlint ./..."
go run ./cmd/cindlint ./...

# cmd/cindbench is a nested module (its own go.mod), so ./... above never
# reaches it: vet and test it from inside, so a root API change that breaks
# the benchmark fails here rather than in a benchmark run.
echo "== cmd/cindbench: go vet ./... && go test ./..."
(cd cmd/cindbench && go vet ./... && go test ./...)

echo "== go test -race ./..."
go test -race ./...

# The serving packages' tests race real goroutines against each other,
# and the engine's streaming helpers share per-slot feeds with the
# consumer: repeat them so load-dependent flakes surface here, not in a
# later run.
echo "== go test -race -count=3 ./internal/server ./internal/shard ./internal/stream ./internal/detect ."
go test -race -count=3 ./internal/server ./internal/shard ./internal/stream ./internal/detect .

# The reasoning packages fan out across goroutines (DecideAll's goal
# pool, Checking's per-component runs): repeat them under the race
# detector too.
echo "== go test -race -count=3 ./internal/implication ./internal/consistency"
go test -race -count=3 ./internal/implication ./internal/consistency

# The benchmarks are otherwise only compiled: run each once, so one that
# panics or fails its own checks fails here rather than in a timed run.
echo "== go test -run '^\$' -bench . -benchtime 1x ./..."
go test -run '^$' -bench . -benchtime 1x ./...

echo "== examples smoke: go run ./examples/*"
for d in examples/*/; do
	echo "-- go run ./$d"
	go run "./$d" > /dev/null
done

while read -r pkg floor; do
	[ -n "$pkg" ] || continue
	check_coverage_floor "$pkg" "$floor"
done << EOF
internal/detect 85
internal/server 85
internal/implication 85
internal/consistency 85
internal/inference 85
internal/chase 85
internal/wal 85
internal/stream 85
internal/shard 85
internal/sqlgen 85
internal/sqlbackend 85
internal/lint 85
EOF

echo "== fuzz smoke: parser round-trip (10s)"
go test -run '^$' -fuzz '^FuzzParseMarshalRoundTrip$' -fuzztime 10s ./internal/parser

echo "== fuzz smoke: delta wire format (10s)"
go test -run '^$' -fuzz '^FuzzDeltaDecode$' -fuzztime 10s ./internal/server

echo "== fuzz smoke: WAL frame decoder (10s)"
go test -run '^$' -fuzz '^FuzzWALDecode$' -fuzztime 10s ./internal/wal

echo "== fuzz smoke: violation stream decoder (10s)"
go test -run '^$' -fuzz '^FuzzStreamDecode$' -fuzztime 10s ./internal/stream

echo "== fuzz smoke: violation stream relay (10s)"
go test -run '^$' -fuzz '^FuzzRelay$' -fuzztime 10s ./internal/stream

echo "== fuzz smoke: NDJSON line parser vs encoding/json (10s)"
go test -run '^$' -fuzz '^FuzzNDJSONLine$' -fuzztime 10s ./internal/stream

echo "== cindserve smoke: start, load bank fixtures, stream violations, clean shutdown"
serve_bin="$(mktemp)"
violate_bin="$(mktemp)"
serve_log="$(mktemp)"
min_dir="$(mktemp -d)"
go build -o "$serve_bin" ./cmd/cindserve
go build -o "$violate_bin" ./cmd/cindviolate
"$serve_bin" -addr 127.0.0.1:0 > "$serve_log" 2>&1 &
serve_pid=$!
# set -e aborts on the first failing curl: make every exit path reap the
# server and the temp files.
trap 'kill "$serve_pid" 2> /dev/null || true; rm -rf "$serve_bin" "$violate_bin" "$serve_log" "$serve_log.hdr" "$serve_log.body" "$min_dir"' EXIT
base=""
for _ in $(seq 1 100); do
	base="$(sed -n 's/^cindserve: listening on //p' "$serve_log")"
	[ -n "$base" ] && break
	sleep 0.1
done
if [ -z "$base" ]; then
	echo "ci: cindserve did not report a listen address:" >&2
	cat "$serve_log" >&2
	exit 1
fi
curl -sSf "$base/healthz" > /dev/null
curl -sSf -X PUT --data-binary @testdata/bank/bank.cind "$base/datasets/bank/constraints" > /dev/null
for rel in interest saving checking account_NYC account_EDI; do
	curl -sSf -X PUT --data-binary "@testdata/bank/$rel.csv" "$base/datasets/bank?relation=$rel" > /dev/null
done
# The default stream is NDJSON: violation lines plus the trailer line.
ndjson="$(curl -sSf "$base/datasets/bank/violations")"
nviol="$(printf '%s\n' "$ndjson" | grep -c '"kind"')"
if [ "$nviol" != "2" ]; then
	echo "ci: cindserve streamed $nviol violations for the bank fixtures, want 2" >&2
	exit 1
fi
case "$(printf '%s\n' "$ndjson" | tail -n 1)" in
*'"done":true'*'"count":2'*) ;;
*)
	echo "ci: NDJSON stream did not end with its trailer line:" >&2
	printf '%s\n' "$ndjson" >&2
	exit 1
	;;
esac
# The JSON-array document of the same stream, kept for the router smoke's
# byte comparison.
json="$(curl -sSf -H 'Accept: application/json' "$base/datasets/bank/violations")"
case "$json" in
*'"done":true,"count":2}') ;;
*)
	echo "ci: JSON stream did not end with its done member:" >&2
	printf '%s\n' "$json" >&2
	exit 1
	;;
esac
# Binary stream format: fetch the same endpoint as CRC-framed batches
# through cindviolate's converter; its NDJSON output must be byte-identical
# to the served NDJSON (exit 1 = violations found, the expected status).
bin_status=0
bin="$("$violate_bin" -from "$base/datasets/bank/violations" -encoding binary)" || bin_status=$?
if [ "$bin_status" != "1" ]; then
	echo "ci: cindviolate -from -encoding binary exited $bin_status, want 1 (violations found)" >&2
	exit 1
fi
if [ "$bin" != "$ndjson" ]; then
	echo "ci: binary stream decoded to a different report than NDJSON:" >&2
	printf 'binary:\n%s\nndjson:\n%s\n' "$bin" "$ndjson" >&2
	exit 1
fi
# Implication round-trip: the Example 3.3 goal must come back implied with
# a proof, over the same served dataset.
impl="$(printf 'cind ex33: account_EDI[at; nil] <= interest[at; nil] { (_ || _) }\n' \
	| curl -sSf -X POST --data-binary @- "$base/datasets/bank/implication")"
case "$impl" in
*'"verdict":"implied"'*'"proof":'*) ;;
*)
	echo "ci: implication round-trip did not answer implied-with-proof: $impl" >&2
	exit 1
	;;
esac
# Consistency: the bank constraints are consistent (definitive answer).
cons="$(curl -sSf "$base/datasets/bank/consistency?k=40&seed=5")"
case "$cons" in
*'"consistent":true'*) ;;
*)
	echo "ci: consistency check did not answer true: $cons" >&2
	exit 1
	;;
esac
# Minimize: the bank spec plus a copy of psi3 under a new id. The rest
# implies one of the two, so minimize must drop exactly one constraint,
# certified implied with a proof, and the minimized spec it returns must
# PUT back as a fresh dataset's constraints. A throwaway Go program decodes
# the JSON response (its strings carry escapes that sed cannot undo).
{
	cat testdata/bank/bank.cind
	printf '\ncind psi3_dup: saving[ab; nil] <= interest[ab; nil] {\n  (_ || _)\n}\n'
} | curl -sSf -X PUT --data-binary @- "$base/datasets/dup/constraints" > /dev/null
curl -sSf -X POST "$base/datasets/dup/minimize" > "$min_dir/resp.json"
cat > "$min_dir/main.go" << 'EOF'
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Reads a minimize response on stdin, requires exactly one drop certified
// implied with a proof, and writes the minimized spec to stdout.
func main() {
	var resp struct {
		Dropped []struct {
			ID, Verdict, Proof string
		}
		Constraints string
	}
	if err := json.NewDecoder(os.Stdin).Decode(&resp); err != nil {
		fmt.Fprintln(os.Stderr, "minimize response:", err)
		os.Exit(1)
	}
	if len(resp.Dropped) != 1 || resp.Dropped[0].Verdict != "implied" || resp.Dropped[0].Proof == "" {
		fmt.Fprintf(os.Stderr, "want one implied drop with a proof, got %+v\n", resp.Dropped)
		os.Exit(1)
	}
	fmt.Print(resp.Constraints)
}
EOF
if ! go run "$min_dir/main.go" < "$min_dir/resp.json" > "$min_dir/min.cind"; then
	echo "ci: minimize did not drop the duplicated CIND with a proof:" >&2
	cat "$min_dir/resp.json" >&2
	exit 1
fi
if ! curl -sSf -X PUT --data-binary "@$min_dir/min.cind" "$base/datasets/dupmin/constraints" > /dev/null; then
	echo "ci: the minimized spec did not PUT back as constraints:" >&2
	cat "$min_dir/min.cind" >&2
	exit 1
fi
rm -rf "$min_dir"
# Body memo: a version's first read keeps nothing and its second NDJSON
# read keeps its body, so a third read of the unchanged version writes the
# same bytes from the memo, which stream_memo_hits counts. A read naming
# the version's tag in If-None-Match gets an empty 304. A delta that
# changes the report ends the version: the next read, tag or none,
# carries the new report.
for i in 2 3; do
	again="$(curl -sSf -D "$serve_log.hdr" "$base/datasets/bank/violations")"
	if [ "$again" != "$ndjson" ]; then
		echo "ci: NDJSON read $i of an unchanged dataset differs:" >&2
		printf 'first:\n%s\nread %s:\n%s\n' "$ndjson" "$i" "$again" >&2
		exit 1
	fi
done
memo_hits() { curl -sSf "$base/metrics" | grep -o '"stream_memo_hits": *[0-9]*' | grep -o '[0-9]*$'; }
if [ "$(memo_hits)" != "1" ]; then
	echo "ci: stream_memo_hits = $(memo_hits) after a repeated read, want 1" >&2
	exit 1
fi
tag="$(sed -n 's/^[Ee][Tt][Aa][Gg]: *//p' "$serve_log.hdr" | tr -d '\r')"
rm -f "$serve_log.hdr"
if [ -z "$tag" ]; then
	echo "ci: an unlimited read of a recurring version carried no ETag" >&2
	exit 1
fi
cond_code="$(curl -sS -o "$serve_log.body" -w '%{http_code}' -H "If-None-Match: $tag" "$base/datasets/bank/violations")"
if [ "$cond_code" != "304" ] || [ -s "$serve_log.body" ]; then
	echo "ci: If-None-Match $tag on an unchanged dataset answered $cond_code with $(wc -c < "$serve_log.body") bytes, want an empty 304" >&2
	exit 1
fi
repair='{"deltas":[{"op":"-","rel":"interest","tuple":["EDI","UK","checking","10.5%"]},{"op":"+","rel":"interest","tuple":["EDI","UK","checking","1.5%"]}]}'
curl -sSf -X POST "$base/datasets/bank/deltas" -d "$repair" > /dev/null
cond_code="$(curl -sS -o "$serve_log.body" -w '%{http_code}' -H "If-None-Match: $tag" "$base/datasets/bank/violations")"
if [ "$cond_code" != "200" ] || [ "$(cat "$serve_log.body")" != '{"done":true,"count":0}' ]; then
	echo "ci: If-None-Match $tag after a delta answered $cond_code, want 200 with the repaired report:" >&2
	cat "$serve_log.body" >&2
	exit 1
fi
rm -f "$serve_log.body"
repaired="$(curl -sSf "$base/datasets/bank/violations")"
if [ "$repaired" != '{"done":true,"count":0}' ] || [ "$(memo_hits)" != "1" ]; then
	echo "ci: the read after a repairing delta was not a fresh, clean report (stream_memo_hits $(memo_hits)):" >&2
	printf '%s\n' "$repaired" >&2
	exit 1
fi
kill -INT "$serve_pid"
if ! wait "$serve_pid"; then
	echo "ci: cindserve did not shut down cleanly:" >&2
	cat "$serve_log" >&2
	exit 1
fi
echo "cindserve smoke: 2 violations streamed (binary == ndjson), minimize dropped the duplicate and its spec PUT back, a repeated read served from the memo, its tag answered 304, a delta ends it, clean shutdown"

echo "== SQL backend smoke: cindserve -backend mem:, same bank stream byte for byte"
: > "$serve_log"
"$serve_bin" -addr 127.0.0.1:0 -backend mem: > "$serve_log" 2>&1 &
serve_pid=$!
base=""
for _ in $(seq 1 100); do
	base="$(sed -n 's/^cindserve: listening on //p' "$serve_log")"
	[ -n "$base" ] && break
	sleep 0.1
done
if [ -z "$base" ]; then
	echo "ci: cindserve -backend did not report a listen address:" >&2
	cat "$serve_log" >&2
	exit 1
fi
curl -sSf -X PUT --data-binary @testdata/bank/bank.cind "$base/datasets/bank/constraints" > /dev/null
for rel in interest saving checking account_NYC account_EDI; do
	curl -sSf -X PUT --data-binary "@testdata/bank/$rel.csv" "$base/datasets/bank?relation=$rel" > /dev/null
done
# Detection now runs through SQL; the report order contract makes the NDJSON
# stream byte-identical to the in-memory run captured above — the same 2
# bank violations, same order, same trailer.
ndjson_sql="$(curl -sSf "$base/datasets/bank/violations")"
if [ "$ndjson_sql" != "$ndjson" ]; then
	echo "ci: SQL-backend stream differs from in-memory stream:" >&2
	printf 'sql:\n%s\nmemory:\n%s\n' "$ndjson_sql" "$ndjson" >&2
	exit 1
fi
# cindviolate's local -backend path over the same fixtures: exit 1 with the
# 2 violations in the report.
violate_status=0
violate_out="$("$violate_bin" -constraints testdata/bank/bank.cind \
	-data interest=testdata/bank/interest.csv -data saving=testdata/bank/saving.csv \
	-data checking=testdata/bank/checking.csv -data account_NYC=testdata/bank/account_NYC.csv \
	-data account_EDI=testdata/bank/account_EDI.csv -backend mem:)" || violate_status=$?
if [ "$violate_status" != "1" ]; then
	echo "ci: cindviolate -backend mem: exited $violate_status, want 1 (violations found)" >&2
	printf '%s\n' "$violate_out" >&2
	exit 1
fi
case "$violate_out" in
*'2 violation'*) ;;
*)
	echo "ci: cindviolate -backend mem: did not report 2 violations:" >&2
	printf '%s\n' "$violate_out" >&2
	exit 1
	;;
esac
kill -INT "$serve_pid"
if ! wait "$serve_pid"; then
	echo "ci: cindserve -backend did not shut down cleanly:" >&2
	cat "$serve_log" >&2
	exit 1
fi
echo "SQL backend smoke: sql stream == in-memory stream, cindviolate -backend agrees"

echo "== durability smoke: kill -9 under delta load, restart, recovered report intact"
data_dir="$(mktemp -d)"
load_pid=""
trap 'kill "$serve_pid" "$load_pid" 2> /dev/null || true; rm -rf "$serve_bin" "$violate_bin" "$serve_log" "$data_dir"' EXIT
: > "$serve_log"
"$serve_bin" -addr 127.0.0.1:0 -data "$data_dir" -fsync always > "$serve_log" 2>&1 &
serve_pid=$!
base=""
for _ in $(seq 1 100); do
	base="$(sed -n 's/^cindserve: listening on //p' "$serve_log")"
	[ -n "$base" ] && break
	sleep 0.1
done
if [ -z "$base" ]; then
	echo "ci: durable cindserve did not report a listen address:" >&2
	cat "$serve_log" >&2
	exit 1
fi
curl -sSf -X PUT --data-binary @testdata/bank/bank.cind "$base/datasets/bank/constraints" > /dev/null
for rel in interest saving checking account_NYC account_EDI; do
	curl -sSf -X PUT --data-binary "@testdata/bank/$rel.csv" "$base/datasets/bank?relation=$rel" > /dev/null
done
# Hammer the deltas endpoint from the background (fresh checking tuples
# with unique keys and ab=NYC, which interest covers: they change the
# data, never the 2-violation report) and SIGKILL the server mid-stream —
# the crash a WAL exists to survive.
(
	i=0
	while :; do
		printf '[{"op":"+","rel":"checking","tuple":["c%d","n","a","p","NYC"]}]' "$i" \
			| curl -sf -X POST --data-binary @- "$base/datasets/bank/deltas" > /dev/null || exit 0
		i=$((i + 1))
	done
) &
load_pid=$!
sleep 0.5
kill -9 "$serve_pid"
wait "$serve_pid" 2> /dev/null || true
kill "$load_pid" 2> /dev/null || true
wait "$load_pid" 2> /dev/null || true
: > "$serve_log"
"$serve_bin" -addr 127.0.0.1:0 -data "$data_dir" -fsync always > "$serve_log" 2>&1 &
serve_pid=$!
base=""
for _ in $(seq 1 100); do
	base="$(sed -n 's/^cindserve: listening on //p' "$serve_log")"
	[ -n "$base" ] && break
	sleep 0.1
done
if [ -z "$base" ]; then
	echo "ci: cindserve did not come back after kill -9:" >&2
	cat "$serve_log" >&2
	exit 1
fi
nviol="$(curl -sSf "$base/datasets/bank/violations" | grep -c '"kind"')"
if [ "$nviol" != "2" ]; then
	echo "ci: recovered server streamed $nviol violations, want 2" >&2
	exit 1
fi
# The load must have actually landed: recovery brought back more checking
# tuples than the 4 fixture rows.
nchk="$(curl -sSf "$base/datasets/bank" | sed -n 's/.*"checking":\([0-9]*\).*/\1/p')"
if [ -z "$nchk" ] || [ "$nchk" -le 4 ]; then
	echo "ci: recovered checking relation holds ${nchk:-?} tuples, want > 4 (load never landed?)" >&2
	exit 1
fi
metrics="$(curl -sSf "$base/metrics")"
case "$metrics" in
*'"wal_replayed_batches"'*) ;;
*)
	echo "ci: recovered server reports no WAL replay metrics: $metrics" >&2
	exit 1
	;;
esac
kill -INT "$serve_pid"
if ! wait "$serve_pid"; then
	echo "ci: recovered cindserve did not shut down cleanly:" >&2
	cat "$serve_log" >&2
	exit 1
fi
echo "durability smoke: survived kill -9, recovered report intact"

echo "== router smoke: 2 shard cindserves + router, bank workload, shard death degrades /healthz"
shard_data="$(mktemp -d)"
s0_log="$(mktemp)"
s1_log="$(mktemp)"
rt_log="$(mktemp)"
s0_pid=""
s1_pid=""
rt_pid=""
trap 'kill "$serve_pid" "$load_pid" "$s0_pid" "$s1_pid" "$rt_pid" 2> /dev/null || true; rm -rf "$serve_bin" "$violate_bin" "$serve_log" "$data_dir" "$shard_data" "$s0_log" "$s1_log" "$rt_log" "$rt_log".bin?' EXIT
# Both shards share one -data root: -shard must namespace their WALs.
"$serve_bin" -addr 127.0.0.1:0 -shard 0 -data "$shard_data" > "$s0_log" 2>&1 &
s0_pid=$!
"$serve_bin" -addr 127.0.0.1:0 -shard 1 -data "$shard_data" > "$s1_log" 2>&1 &
s1_pid=$!
s0=""
s1=""
for _ in $(seq 1 100); do
	s0="$(sed -n 's/^cindserve: listening on //p' "$s0_log")"
	s1="$(sed -n 's/^cindserve: listening on //p' "$s1_log")"
	[ -n "$s0" ] && [ -n "$s1" ] && break
	sleep 0.1
done
if [ -z "$s0" ] || [ -z "$s1" ]; then
	echo "ci: shard cindserves did not report listen addresses" >&2
	cat "$s0_log" "$s1_log" >&2
	exit 1
fi
"$serve_bin" -addr 127.0.0.1:0 -route "$s0,$s1" > "$rt_log" 2>&1 &
rt_pid=$!
base=""
for _ in $(seq 1 100); do
	base="$(sed -n 's/^cindserve: listening on //p' "$rt_log")"
	[ -n "$base" ] && break
	sleep 0.1
done
if [ -z "$base" ]; then
	echo "ci: router cindserve did not report a listen address:" >&2
	cat "$rt_log" >&2
	exit 1
fi
curl -sSf "$base/healthz" > /dev/null
curl -sSf -X PUT --data-binary @testdata/bank/bank.cind "$base/datasets/bank/constraints" > /dev/null
for rel in interest saving checking account_NYC account_EDI; do
	curl -sSf -X PUT --data-binary "@testdata/bank/$rel.csv" "$base/datasets/bank?relation=$rel" > /dev/null
done
# The scatter-gather stream must be byte-identical to the single node's
# NDJSON captured in the first smoke — order, trailer and all.
ndjson_rt="$(curl -sSf "$base/datasets/bank/violations")"
if [ "$ndjson_rt" != "$ndjson" ]; then
	echo "ci: router stream differs from single-node stream:" >&2
	printf 'router:\n%s\nsingle:\n%s\n' "$ndjson_rt" "$ndjson" >&2
	exit 1
fi
# The router's JSON-array document must be byte-identical to the single
# node's as well.
json_rt="$(curl -sSf -H 'Accept: application/json' "$base/datasets/bank/violations")"
if [ "$json_rt" != "$json" ]; then
	echo "ci: router JSON stream differs from single-node JSON stream:" >&2
	printf 'router:\n%s\nsingle:\n%s\n' "$json_rt" "$json" >&2
	exit 1
fi
# cindviolate against the router URL, binary wire format end to end.
bin_status=0
bin_rt="$("$violate_bin" -from "$base/datasets/bank/violations" -encoding binary)" || bin_status=$?
if [ "$bin_status" != "1" ]; then
	echo "ci: cindviolate -from <router> -encoding binary exited $bin_status, want 1" >&2
	exit 1
fi
if [ "$bin_rt" != "$ndjson" ]; then
	echo "ci: binary stream through router decoded differently than single-node NDJSON:" >&2
	printf 'router binary:\n%s\nsingle ndjson:\n%s\n' "$bin_rt" "$ndjson" >&2
	exit 1
fi
# The router answers reasoning itself, through the single node's handlers:
# the Example 3.3 goal comes back implied with a proof.
impl_rt="$(printf 'cind ex33: account_EDI[at; nil] <= interest[at; nil] { (_ || _) }\n' \
	| curl -sSf -X POST --data-binary @- "$base/datasets/bank/implication")"
case "$impl_rt" in
*'"verdict":"implied"'*'"proof":'*) ;;
*)
	echo "ci: router implication did not answer implied-with-proof: $impl_rt" >&2
	exit 1
	;;
esac
metrics_rt="$(curl -sSf "$base/metrics")"
case "$metrics_rt" in
*'"rollup"'*) ;;
*)
	echo "ci: router /metrics carries no per-shard rollup" >&2
	exit 1
	;;
esac
# The router's own section (keys sorted: "rollup", "router", "shards")
# carries the shared handlers' latency histograms.
router_vars="$(printf '%s' "$metrics_rt" | sed -n 's/.*"router":\(.*\),"shards":{.*/\1/p')"
case "$router_vars" in
*'"latency_us"'*'"violations"'*) ;;
*)
	echo "ci: router /metrics router section carries no latency_us histograms: $metrics_rt" >&2
	exit 1
	;;
esac
# Each shard holds only the constraints it owns, so no two shards stream
# the same violation: over the three router streams above, the shards'
# roll-up of violations_streamed must equal the router's own count.
rollup_streamed="$(printf '%s' "$metrics_rt" | sed -n 's/.*"rollup":{[^}]*"violations_streamed":\([0-9]*\)[,}].*/\1/p')"
router_streamed="$(printf '%s' "$router_vars" | sed -n 's/.*"violations_streamed":\([0-9]*\)[,}].*/\1/p')"
echo "router smoke: violations_streamed rollup=$rollup_streamed router=$router_streamed"
if [ -z "$router_streamed" ] || [ "$router_streamed" = "0" ] || [ "$rollup_streamed" != "$router_streamed" ]; then
	echo "ci: shard roll-up violations_streamed ($rollup_streamed) != router violations_streamed ($router_streamed): $metrics_rt" >&2
	exit 1
fi
# Router body memo: the repairing delta gives both shards a new version,
# so the first binary read after it gathers (the shards answer the kept
# body's tags with 200), the second keeps the merged body, and the third
# is served from it once both shards answer 304.
curl -sSf -X POST "$base/datasets/bank/deltas" -d "$repair" > /dev/null
for i in 1 2 3; do
	curl -sSf -H 'Accept: application/x-cind-frames' -o "$rt_log.bin$i" "$base/datasets/bank/violations"
done
if ! cmp -s "$rt_log.bin1" "$rt_log.bin2" || ! cmp -s "$rt_log.bin1" "$rt_log.bin3"; then
	echo "ci: three binary reads of an unchanged routed dataset differ" >&2
	exit 1
fi
rm -f "$rt_log.bin1" "$rt_log.bin2" "$rt_log.bin3"
metrics_rt="$(curl -sSf "$base/metrics")"
router_hits="$(printf '%s' "$metrics_rt" | sed -n 's/.*"router":{.*"stream_memo_hits":\([0-9]*\)[,}].*"shards":{.*/\1/p')"
rollup_nm="$(printf '%s' "$metrics_rt" | sed -n 's/.*"rollup":{[^}]*"stream_not_modified":\([0-9]*\)[,}].*/\1/p')"
echo "router smoke: router stream_memo_hits=$router_hits, rollup stream_not_modified=$rollup_nm"
if [ "$router_hits" != "1" ] || [ "$rollup_nm" != "2" ]; then
	echo "ci: router stream_memo_hits = $router_hits, rollup stream_not_modified = $rollup_nm after three binary reads, want 1 and 2: $metrics_rt" >&2
	exit 1
fi
# Kill shard 1: /healthz must degrade to 503 and name the dead shard.
kill -9 "$s1_pid"
wait "$s1_pid" 2> /dev/null || true
health_code="$(curl -s -o "$rt_log.health" -w '%{http_code}' "$base/healthz")"
if [ "$health_code" != "503" ]; then
	echo "ci: router /healthz returned $health_code with a dead shard, want 503" >&2
	cat "$rt_log.health" >&2
	rm -f "$rt_log.health"
	exit 1
fi
if ! grep -q "$s1" "$rt_log.health"; then
	echo "ci: degraded /healthz does not name the dead shard $s1:" >&2
	cat "$rt_log.health" >&2
	rm -f "$rt_log.health"
	exit 1
fi
rm -f "$rt_log.health"
kill -INT "$rt_pid" "$s0_pid"
if ! wait "$rt_pid"; then
	echo "ci: router did not shut down cleanly:" >&2
	cat "$rt_log" >&2
	exit 1
fi
wait "$s0_pid" 2> /dev/null || true
echo "router smoke: sharded NDJSON and JSON == single-node streams, shard roll-up == router count, reasoning served, warm read served from the router's body, dead shard named in 503"

echo "ci: all green"
