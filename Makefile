GO ?= go

.PHONY: build test race bench benchdiff check fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# internal/core alone takes ~9–11 min under the race detector on two cores,
# at go test's 10-minute default alarm (scripts/check.sh passes the same).
race:
	$(GO) test -race -timeout 30m ./...

# bench runs the study benchmark BENCHMARK.json declares (six workloads,
# one JSON result line each; see bench/README.md).
bench:
	$(GO) run ./bench

# benchdiff compares two result files of it: make benchdiff OLD=a.jsonl NEW=b.jsonl
benchdiff:
	$(GO) run ./bench/benchdiff $(OLD) $(NEW)

# check is the full verification gate: gofmt + vet + build + race tests +
# short fuzz smoke runs (FUZZTIME=3s by default; override: make check FUZZTIME=30s).
check:
	FUZZTIME=$(FUZZTIME) sh scripts/check.sh

# fuzz-smoke runs every fuzz target of the module for FUZZTIME (3s by default).
fuzz-smoke:
	FUZZTIME=$(FUZZTIME) sh scripts/fuzz-smoke.sh
