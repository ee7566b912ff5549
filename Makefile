# Development and CI entry points.
#
#   make ci          vet + build + tests + race pass + coverage floors + bench gate
#   make test        go test ./...
#   make race        go test -race on the concurrency-critical packages
#   make cover       per-package coverage floors (obs/race/lockset)
#   make bench-gate  deterministic pipeline stats vs checked-in golden
#   make fuzz        short fuzz session on the minilang frontend
#   make bench       sequential-vs-parallel detection speedup benchmark
#
# The checked-in fuzz corpus under internal/lang/testdata/fuzz is replayed
# by the plain `go test` runs, so regressions on past findings fail `ci`.

GO ?= go
FUZZTIME ?= 30s

.PHONY: ci vet build test race cover bench-gate fuzz bench

ci: vet build test race cover bench-gate

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race-detector list lives in ci.sh, so make, ci.sh and CI run the
# same packages.
race:
	./ci.sh race

cover:
	./ci.sh cover

# Runs the three fixed gate presets at Workers=1 and compares the
# deterministic run stats (pairs checked, counters, hit rates, races)
# against internal/bench/testdata/bench_gate_golden.json. Regenerate the
# golden after an intentional change with:
#   $(GO) run ./cmd/o2bench -table gate -update-golden
bench-gate:
	./ci.sh bench-gate

fuzz:
	$(GO) test ./internal/lang/ -run FuzzCompile -fuzz FuzzCompile -fuzztime $(FUZZTIME)

bench:
	$(GO) test -run=NONE -bench=ParallelDetect -benchmem .
