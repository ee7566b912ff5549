#!/bin/sh
# CI pipeline for environments without make: vet, build, full test suite
# (which replays the checked-in fuzz corpus), the race-detector pass over
# the packages shared across detection workers, per-package coverage
# floors, and the bench gate (deterministic pipeline stats vs the
# checked-in golden; see internal/bench/gate.go).
#
#   ./ci.sh                 run everything
#   ./ci.sh bench-gate      run only the bench gate (emits BENCH_ci.json)
#   ./ci.sh bench-variance  run only the timing-noise gate (emits VARIANCE_ci.json)
#   ./ci.sh bench-frontend  run one pass of the frontend throughput benchmark
#   ./ci.sh bench-detect    run one pass of the detection pool and OSA/SHB allocation benchmarks
#   ./ci.sh bench-serve     run one pass of the served POST /analyze benchmark
#   ./ci.sh cover           run only the coverage floors
#   ./ci.sh race            run only the race-detector pass
#   ./ci.sh smoke           run only the serve/batch end-to-end smoke
#   ./ci.sh telemetry       run only the telemetry-artifact checks
#   ./ci.sh eval            run only the precision gate + metamorphic smoke
set -eux

bench_gate() {
	go run ./cmd/o2bench -table gate \
		-stats-json BENCH_ci.json \
		-golden internal/bench/testdata/bench_gate_golden.json
}

# Timing-noise gate: rerun the gate presets and fail when any >=1ms
# phase's wall time varies by more than 15% (stddev/mean) — noisy
# timings mean the recorded perf numbers cannot be trended. Runs as its
# own CI job so bench-affecting noise is attributed separately from
# correctness failures.
bench_variance() {
	go run ./cmd/o2bench -table variance -stats-json VARIANCE_ci.json
}

# Frontend throughput: one pass of BenchmarkFrontend (lang.Parse and
# lang.CompileFiles over the truth corpus and a generated 200-class
# program), so the benchmark keeps building and running. The numbers are
# informational; nothing is gated on them.
bench_frontend() {
	go test -run '^$' -bench Frontend -benchtime 1x ./internal/lang/
}

# Detection worker pool and the phases feeding it: one pass of
# BenchmarkParallelDetect (the Linux model at 1-8 workers),
# BenchmarkParallelDetectObs, BenchmarkDetectAllocs and
# BenchmarkFrontPhaseAllocs (OSA and SHB on zookeeper) at GOMAXPROCS 1
# and 2, so these benchmarks keep building and running. The numbers are
# informational; nothing is gated on them.
bench_detect() {
	go test -run '^$' -bench 'ParallelDetect|DetectAllocs|FrontPhaseAllocs' -benchtime 1x -cpu 1,2 .
}

# Served requests: one pass of BenchmarkServeAnalyze (POST /analyze with
# wait through httptest, a cache miss and a cache hit, response read and
# decoded), so the benchmark keeps building and running. The numbers are
# informational; nothing is gated on them.
bench_serve() {
	go test -run '^$' -bench ServeAnalyze -benchtime 1x -benchmem ./internal/server/
}

# Precision gate over the ground-truth oracle corpus (internal/truth):
# recall must be 1.0 and precision at or above the checked-in baseline,
# then the metamorphic suite must leave every canonical race-report set
# invariant (all source transforms x the corpus, all IR transforms x
# three workload presets). See `o2 eval -h`.
eval_gate() {
	go run ./cmd/o2 eval -metamorphic
}

# Race-detector pass: the packages whose state is shared across
# detection workers, scheduler jobs or corpus workers, plus the
# concurrent-store, corpus-pipeline and concurrent pooled-state tests.
# The one list CI and make both run.
race() {
	go test -race ./internal/race/ ./internal/shb/ ./internal/lockset/ ./internal/ring/ ./internal/obs/ ./internal/sched/ ./internal/server/ ./internal/summary/ ./internal/corpus/
	go test -race -run 'TestIncrementalConcurrentStore' ./internal/truth/
	go test -race -run 'TestAnalyzeCorpus|TestConcurrentReuseLeavesNoTrace' .
}

# End-to-end smoke of the batch-analysis service: build the CLI, start
# `o2 serve` on an ephemeral port, wait for /healthz via the pure-Go
# `o2 submit` client (no curl dependency), submit a racy, a clean and a
# malformed program asserting exit codes 1, 0 and 3 and their JSON
# output, and a racy program whose threads start empty threads, then
# stop the server with SIGTERM and require a clean graceful-drain exit.
smoke() {
	dir=$(mktemp -d)
	go build -o "$dir/o2" ./cmd/o2
	"$dir/o2" serve -addr 127.0.0.1:0 -addr-file "$dir/addr" 2>"$dir/serve.log" &
	pid=$!
	trap 'kill "$pid" 2>/dev/null || true; rm -rf "$dir"' EXIT
	"$dir/o2" submit -addr "@$dir/addr" -retry 10 -healthz

	# A program nested 2.5M blocks deep (27.5 MB, generated here rather than
	# checked in) once overflowed the parser's stack, which ends the whole
	# server. It must come back as a parse error; the submissions, the
	# /metrics scrape and the drain check below prove the server lived.
	python3 -c "
import sys
n = 2500000
sys.stdout.write('main {\n' + 'if (x) {\n' * n + '}\n' * (n + 1))
" >"$dir/deep.mini"
	rc=0
	"$dir/o2" submit -addr "@$dir/addr" "$dir/deep.mini" >"$dir/deep.json" || rc=$?
	[ "$rc" -eq 3 ] || { echo "smoke: deep nesting exit=$rc, want 3" >&2; cat "$dir/serve.log" >&2; exit 1; }
	grep -q '"error_kind": "parse"' "$dir/deep.json" || { echo "smoke: deep nesting is not a parse error" >&2; head -c 2000 "$dir/deep.json" >&2; exit 1; }
	rm "$dir/deep.mini"

	rc=0
	"$dir/o2" submit -addr "@$dir/addr" testdata/smoke_racy.mini >"$dir/racy.json" || rc=$?
	[ "$rc" -eq 1 ] || { echo "smoke: racy exit=$rc, want 1" >&2; exit 1; }
	grep -q '"races"' "$dir/racy.json" || { echo "smoke: no races array in response" >&2; exit 1; }
	grep -q '"race_count": 1' "$dir/racy.json" || { echo "smoke: wrong race count" >&2; exit 1; }

	"$dir/o2" submit -addr "@$dir/addr" testdata/smoke_clean.mini >"$dir/clean.json"
	grep -q '"race_count": 0' "$dir/clean.json" || { echo "smoke: clean program reported races" >&2; exit 1; }

	rc=0
	"$dir/o2" submit -addr "@$dir/addr" testdata/smoke_bad.mini >"$dir/bad.json" || rc=$?
	[ "$rc" -eq 3 ] || { echo "smoke: malformed exit=$rc, want 3" >&2; exit 1; }
	grep -q '"error_kind": "parse"' "$dir/bad.json" || { echo "smoke: malformed program is not a parse error" >&2; cat "$dir/bad.json" >&2; exit 1; }

	# Threads that start threads with an empty run(): the race must come
	# back with its witness, and the drain check below proves the server
	# survived building it.
	rc=0
	"$dir/o2" submit -addr "@$dir/addr" testdata/smoke_empty_spawn.mini >"$dir/empty_spawn.json" || rc=$?
	[ "$rc" -eq 1 ] || { echo "smoke: empty-spawn exit=$rc, want 1" >&2; cat "$dir/serve.log" >&2; exit 1; }
	grep -q '"race_count": 1' "$dir/empty_spawn.json" || { echo "smoke: empty-spawn race count" >&2; cat "$dir/empty_spawn.json" >&2; exit 1; }
	grep -q '"witness": {' "$dir/empty_spawn.json" || { echo "smoke: empty-spawn race has no witness" >&2; cat "$dir/empty_spawn.json" >&2; exit 1; }

	# The Prometheus exposition must be non-empty and reflect the traffic
	# above (o2 submit -metrics fails on empty/TYPE-less output itself).
	"$dir/o2" submit -addr "@$dir/addr" -metrics >"$dir/metrics.txt"
	grep -q '^o2_sched_completed [1-9]' "$dir/metrics.txt" || { echo "smoke: /metrics shows no completed jobs" >&2; exit 1; }
	grep -q '^# TYPE o2_server_request_seconds histogram' "$dir/metrics.txt" || { echo "smoke: /metrics missing latency histogram" >&2; exit 1; }

	kill -TERM "$pid"
	wait "$pid" || { echo "smoke: serve did not drain cleanly" >&2; cat "$dir/serve.log" >&2; exit 1; }

	# Corpus streaming end to end: zip the smoke programs, pipe the
	# archive through `o2 batch -stream`, and require input-ordered
	# NDJSON — one well-formed record per program with the right exit
	# class — and the worst-per-program exit code (1: races found).
	(cd testdata && python3 -c "
import zipfile
for name, files in [('corpus', ['smoke_clean.mini', 'smoke_racy.mini']),
                    ('bad', ['smoke_bad.mini', 'smoke_racy.mini'])]:
    with zipfile.ZipFile('$dir/' + name + '.zip', 'w') as z:
        for f in files:
            z.write(f)
")
	rc=0
	"$dir/o2" batch -stream "$dir/corpus.zip" >"$dir/stream.ndjson" 2>"$dir/stream.log" || rc=$?
	[ "$rc" -eq 1 ] || { echo "smoke: batch -stream exit=$rc, want 1" >&2; exit 1; }
	[ "$(wc -l <"$dir/stream.ndjson")" -eq 2 ] || { echo "smoke: want 2 NDJSON records" >&2; cat "$dir/stream.ndjson" >&2; exit 1; }
	while IFS= read -r line; do
		printf '%s\n' "$line" | python3 -m json.tool >/dev/null || { echo "smoke: bad NDJSON record" >&2; exit 1; }
	done <"$dir/stream.ndjson"
	head -1 "$dir/stream.ndjson" | grep -q '"exit_class":"ok"' || { echo "smoke: first record should be the clean program" >&2; exit 1; }
	tail -1 "$dir/stream.ndjson" | grep -q '"exit_class":"races"' || { echo "smoke: second record should carry races" >&2; exit 1; }

	# The default table form of the same batch: exit 1 and one row per
	# program, in input order, between the header and the totals line.
	rc=0
	"$dir/o2" batch "$dir/corpus.zip" >"$dir/table.txt" || rc=$?
	[ "$rc" -eq 1 ] || { echo "smoke: batch exit=$rc, want 1" >&2; exit 1; }
	rows=$(awk '$1 ~ /\.mini$/ { print $1 ":" $2 ":" $3 }' "$dir/table.txt" | tr '\n' ' ')
	[ "$rows" = "smoke_clean.mini:done:0 smoke_racy.mini:done:1 " ] || { echo "smoke: batch table rows '$rows'" >&2; cat "$dir/table.txt" >&2; exit 1; }
	grep -q '^2 jobs in ' "$dir/table.txt" || { echo "smoke: batch table has no totals line" >&2; cat "$dir/table.txt" >&2; exit 1; }

	# A malformed program in the corpus: its record carries exit_class
	# parse, the racy program is still analyzed, and the batch exits 3.
	rc=0
	"$dir/o2" batch -stream "$dir/bad.zip" >"$dir/bad.ndjson" 2>"$dir/bad.log" || rc=$?
	[ "$rc" -eq 3 ] || { echo "smoke: batch -stream with a malformed program exit=$rc, want 3" >&2; exit 1; }
	head -1 "$dir/bad.ndjson" | grep -q '"exit_class":"parse"' || { echo "smoke: malformed program's record should carry exit_class parse" >&2; cat "$dir/bad.ndjson" >&2; exit 1; }
	tail -1 "$dir/bad.ndjson" | grep -q '"exit_class":"races"' || { echo "smoke: racy program after a malformed one should carry races" >&2; exit 1; }

	trap - EXIT
	rm -rf "$dir"
	echo "smoke: ok"
}

# Telemetry artifacts end to end: run the CLI with -explain-json and
# -trace-out on the smoke example and validate both artifacts are
# well-formed JSON (python3 json.tool; schema details are covered by the
# Go tests in internal/obs and internal/race).
telemetry() {
	dir=$(mktemp -d)
	trap 'rm -rf "$dir"' EXIT
	rc=0
	go run ./cmd/o2 analyze -explain-json -trace-out "$dir/trace.json" \
		testdata/smoke_racy.mini >"$dir/witness.json" || rc=$?
	[ "$rc" -eq 1 ] || { echo "telemetry: racy exit=$rc, want 1" >&2; exit 1; }
	python3 -m json.tool "$dir/witness.json" >/dev/null || { echo "telemetry: witness JSON invalid" >&2; exit 1; }
	python3 -m json.tool "$dir/trace.json" >/dev/null || { echo "telemetry: trace JSON invalid" >&2; exit 1; }
	grep -q '"schema"' "$dir/witness.json" || { echo "telemetry: witness missing schema stamp" >&2; exit 1; }
	grep -q '"ph"' "$dir/trace.json" || { echo "telemetry: trace has no events" >&2; exit 1; }

	# Progress-event stream: every interleaved line must be well-formed
	# JSON and at least one must be a schema-tagged progress record.
	rc=0
	go run ./cmd/o2 batch -stream -progress-interval 1ns \
		testdata/smoke_racy.mini testdata/smoke_clean.mini \
		>"$dir/progress.ndjson" 2>/dev/null || rc=$?
	[ "$rc" -eq 1 ] || { echo "telemetry: progress stream exit=$rc, want 1" >&2; exit 1; }
	while IFS= read -r line; do
		printf '%s\n' "$line" | python3 -m json.tool >/dev/null || { echo "telemetry: bad progress-stream record" >&2; exit 1; }
	done <"$dir/progress.ndjson"
	grep -q '"progress":true' "$dir/progress.ndjson" || { echo "telemetry: stream has no progress records" >&2; exit 1; }

	# Introspection report on the zookeeper preset: well-formed and
	# carries the per-origin top-K. Its run-to-run byte stability is
	# TestIntrospectionByteStability's job.
	rc=0
	go run ./cmd/o2 analyze -preset zookeeper -stats-json "$dir/zk.json" >/dev/null || rc=$?
	[ "$rc" -eq 1 ] || { echo "telemetry: zookeeper exit=$rc, want 1" >&2; exit 1; }
	python3 -m json.tool "$dir/zk.json" >/dev/null || { echo "telemetry: stats JSON invalid" >&2; exit 1; }
	grep -q '"introspection"' "$dir/zk.json" || { echo "telemetry: stats missing introspection section" >&2; exit 1; }
	grep -q '"top_k"' "$dir/zk.json" || { echo "telemetry: introspection missing top-K attribution" >&2; exit 1; }

	trap - EXIT
	rm -rf "$dir"
	echo "telemetry: ok"
}

# Minimum statement coverage per observability-critical package. Floors
# sit ~15 points under current coverage (obs 91%, race 84%, lockset 94%)
# so they catch untested growth without flaking on minor refactors. The
# obs floor covers the flight-recorder additions (progress snapshots,
# introspection ranking, exposition parsing) alongside the registry.
cover() {
	for spec in internal/obs:75 internal/race:70 internal/lockset:80; do
		pkg=${spec%:*}
		floor=${spec#*:}
		go test -coverprofile=cover.out "./$pkg/" >/dev/null
		pct=$(go tool cover -func=cover.out | awk '/^total:/ {sub("%","",$3); print $3}')
		echo "coverage $pkg: $pct% (floor $floor%)"
		awk -v p="$pct" -v f="$floor" 'BEGIN { exit (p+0 >= f+0) ? 0 : 1 }' || {
			echo "coverage below floor for $pkg" >&2
			exit 1
		}
	done
	rm -f cover.out
}

case "${1:-all}" in
bench-gate)
	bench_gate
	exit 0
	;;
bench-variance)
	bench_variance
	exit 0
	;;
bench-frontend)
	bench_frontend
	exit 0
	;;
bench-detect)
	bench_detect
	exit 0
	;;
bench-serve)
	bench_serve
	exit 0
	;;
cover)
	cover
	exit 0
	;;
race)
	race
	exit 0
	;;
smoke)
	smoke
	exit 0
	;;
telemetry)
	telemetry
	exit 0
	;;
eval)
	eval_gate
	exit 0
	;;
all) ;;
*)
	echo "usage: ./ci.sh [bench-gate|bench-variance|bench-frontend|bench-detect|bench-serve|cover|race|smoke|telemetry|eval]" >&2
	exit 2
	;;
esac

go vet ./...
go build ./...
go test ./...
race
cover
smoke
telemetry
eval_gate
bench_gate
bench_variance
bench_frontend
bench_detect
bench_serve
