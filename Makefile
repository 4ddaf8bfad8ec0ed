GO ?= go
BENCH_OUT ?= BENCH_pr24.json
BENCH_LABEL ?= after
FUZZTIME ?= 10s

.PHONY: all build test check fmt-check vet race loc bench bench-all bench-compare fuzz smoke-resume smoke-trace smoke-atlas smoke-server fmt

all: build

build:
	$(GO) build ./...

# Full test suite (what CI gates on).
test:
	$(GO) test ./...

# Fast pre-commit gate: gofmt + vet + race-enabled short tests.
# Long training runs (determinism table test, full discovery sessions)
# skip themselves under -short; the race detector still covers the
# sharded campaign workers, the shared reference table, and the cache.
check: fmt-check vet race

# Fails when a tracked Go file is not gofmt-clean, listing the files.
fmt-check:
	@unformatted=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -short ./...

# Non-test Go lines outside perfbench/, the size figure that changes which
# delete code report (tracked files only).
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | xargs cat | wc -l

# Engine benchmarks (campaign, oracle, per-cipher fork kernels, DFA key
# recovery, atlas sweeps), 5 repetitions recorded in $(BENCH_OUT) under
# label $(BENCH_LABEL) as their mean, median and quartiles. Run with
# BENCH_LABEL=before on the parent commit, interleaved with this one's
# runs, to record a baseline; entries of other labels in an existing file
# are preserved.
bench:
	$(GO) test -run '^$$' -bench 'Campaign|Oracle|Encrypt|DFA|Sweep' -benchmem -count 5 . \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -o $(BENCH_OUT)

# Every benchmark in the repo, including the paper-table harness runs.
bench-all:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Compare the "before" entries of $(BENCH_OUT) with its "after" entries;
# exits nonzero when any shared benchmark's mean slowed down beyond 20%.
# Each side's median and interquartile range are printed beside it.
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(BENCH_OUT)

# Fuzz smoke: each native fuzz target for FUZZTIME (go test allows one
# -fuzz target per invocation). The checked-in seed corpora under
# testdata/fuzz/ always run as part of `make test` too.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEncryptDecrypt$$' -fuzztime $(FUZZTIME) ./internal/ciphers
	$(GO) test -run '^$$' -fuzz '^FuzzBatchScalarEquivalence$$' -fuzztime $(FUZZTIME) ./internal/ciphers
	$(GO) test -run '^$$' -fuzz '^FuzzAccumulatorMerge$$' -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzAccumulatorBlock$$' -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzStagesOpen$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzFaultApply$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzMLPKernels$$' -fuzztime $(FUZZTIME) ./internal/nn
	$(GO) test -run '^$$' -fuzz '^FuzzVectorMath$$' -fuzztime $(FUZZTIME) ./internal/nn
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime $(FUZZTIME) .

# Kill-and-resume smoke: SIGINT a checkpointing discovery run mid-training,
# verify the event log survived intact, resume, and compare against an
# uninterrupted reference run.
smoke-resume:
	sh scripts/smoke_resume.sh

# Traced-run smoke: tiny discovery run with -events and -trace, validate
# the Chrome trace, and run obsreport over the artifacts.
smoke-trace:
	sh scripts/smoke_trace.sh

# Exhaustive-sweep smoke: reduced-round atlas sweep, SIGINT'd mid-run and
# resumed bit-identically, plus tracecheck, atlas -validate, and a
# coverage replay of a real discovery event log.
smoke-atlas:
	sh scripts/smoke_atlas.sh

# Daemon restart smoke: SIGTERM explorefaultd mid-job, restart it on the
# same data directory, and require the resumed job's result and
# normalized event stream to match an uninterrupted daemon's byte for
# byte; then the same after a SIGKILL and a torn record appended to the
# job table, which the restarted daemon must report as dropped bytes.
smoke-server:
	sh scripts/smoke_server.sh

fmt:
	gofmt -l -w .
