# Every check is spelled once, here: both jobs of .github/workflows/ci.yml
# run `make <target>`, so local runs match CI exactly.

GO ?= go

.PHONY: build test race loc bench bench-substrate bench-module fuzz-smoke bench-json bench-compare fmt fmt-check vet staticcheck smoke mutation-smoke mmap-smoke router-smoke load-smoke chaos-smoke write-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second and third lines repeat the tests of the lock-free paths — the
# striped histogram and span ring, and the CLOCK cache whose hits read a
# published table while puts and sweeps replace it — so a rare interleaving
# of a publish against a hit gets twenty chances to show.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run '^(TestRing.*|TestHistogramStripesExact|TestConcurrentRecordSnapshot)$$' ./internal/obs
	$(GO) test -race -count=20 -run '^(TestClock.*|TestHitTakesNoShardLock|TestLRU.*)$$' ./internal/engine

# Non-test Go lines outside the frozen benchmark/ module (and its build
# directory): the one number every simplicity PR reports, counted one way.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l

# One iteration of every benchmark: a smoke test, not a measurement.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Alloc-regression guards on the pooled hot-path substrate: each
# BenchmarkSubstrate* measures steady-state allocs/op with AllocsPerRun (and
# BenchmarkSubstrateSEAMiss bytes/op) and FAILS above its committed ceiling.
# CI runs this on every push.
bench-substrate:
	$(GO) test -bench=BenchmarkSubstrate -benchtime=1x -run='^$$' .

# The frozen benchmark (BENCHMARK.json, benchmark/) is its own Go module, so
# the root ./... patterns skip it; this keeps an API change in the main
# module from breaking it unnoticed.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Every fuzzer for FUZZTIME each (go test -fuzz takes one target and one
# package at a time). A crasher lands in the package's testdata/fuzz/ — commit
# it with the fix, and it runs as a plain test from then on.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzScanJournal$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzOpenJournal$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzLoadGraph$$' -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) ./internal/httpapi
	$(GO) test -run '^$$' -fuzz '^FuzzMutateBody$$' -fuzztime $(FUZZTIME) ./internal/httpapi
	$(GO) test -run '^$$' -fuzz '^FuzzParseFaultSpec$$' -fuzztime $(FUZZTIME) ./internal/faults

# The canonical perf-trajectory record. Each performance-relevant PR runs
# this and commits the output as BENCH_<pr>.json (see README "Performance").
# Alongside the seabench wall-clock experiments it runs the canonical
# seaload SLO scenarios (open-loop, self-served loopback server, fixed
# seed), so the trajectory also tracks serving-latency percentiles.
BENCH_OUT ?= BENCH_new.json
bench-json:
	$(GO) run ./cmd/seabench -scale 0.25 -queries 4 -out $(BENCH_OUT)
	$(GO) run ./cmd/seaload -selfserve -scale 0.25 -scenario read-heavy \
		-qps 150 -duration 5s -warmup 1s -out $(BENCH_OUT)
	$(GO) run ./cmd/seaload -selfserve -scale 0.25 -scenario mixed \
		-qps 150 -duration 5s -warmup 1s -out $(BENCH_OUT)
	$(GO) run ./cmd/seaload -selfserve -selfserve-journal -scale 0.25 \
		-scenario write-heavy -qps 150 -duration 5s -warmup 1s -out $(BENCH_OUT)
	$(GO) run ./cmd/seaload -selfserve -selfserve-journal -scale 1.0 \
		-writers 32 -direct -duration 3s -warmup 500ms -out $(BENCH_OUT)

# Re-run the canonical configuration and print per-experiment wall-clock
# ratios against the latest (highest-numbered) committed trajectory record.
BENCH_BASE ?= $(shell git ls-files 'BENCH_*.json' | sort -t_ -k2n | tail -1)
bench-compare:
	$(GO) run ./cmd/seabench -scale 0.25 -queries 4 -compare $(BENCH_BASE)

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# CI installs staticcheck; locally the target skips with a note when the
# binary is absent (the module adds no deps).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck -checks 'SA*' ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; \
	fi

# The seven end-to-end smokes, spelled once: CI's smoke job (ci.yml) is a
# matrix over these targets and runs `make <target>`. Every target starts
# from the same prepare step — build all binaries, generate the facebook
# analog, pack it — into its own directory under $TMPDIR (default /tmp),
# then runs scripts/<target>.sh, whose header says what the smoke asserts.
# `smoke` is the one without a script: its steps are the recipe below.
smoke_dir = $(or $(TMPDIR),/tmp)/sea-$@
scripted_smokes := mutation-smoke mmap-smoke router-smoke load-smoke chaos-smoke write-smoke

define smoke-prepare
@rm -rf $(smoke_dir) && mkdir -p $(smoke_dir)
$(GO) build -o $(smoke_dir)/ ./cmd/...
$(smoke_dir)/datagen -dataset facebook -scale 0.3 -out $(smoke_dir)/fb.txt
$(smoke_dir)/seacli pack -load $(smoke_dir)/fb.txt -out $(smoke_dir)/fb.snap
endef

$(scripted_smokes):
	$(smoke-prepare)
	SMOKE_DIR=$(smoke_dir) sh scripts/$@.sh

# Snapshot-serving smoke: boot seaserve from the packed snapshot and curl it
# the way an operator would.
smoke:
	$(smoke-prepare)
	@$(smoke_dir)/seaserve -snapshot $(smoke_dir)/fb.snap -addr 127.0.0.1:8971 & \
	pid=$$!; \
	for i in $$(seq 1 50); do curl -sf http://127.0.0.1:8971/healthz >/dev/null && break; sleep 0.2; done; \
	curl -sf http://127.0.0.1:8971/healthz && echo && \
	curl -sf "http://127.0.0.1:8971/search?q=0&k=2&method=structural" >/dev/null && \
	curl -sf http://127.0.0.1:8971/graphs && echo && \
	echo "smoke OK"; status=$$?; kill $$pid 2>/dev/null; exit $$status

ci: fmt-check vet staticcheck build race bench bench-substrate bench-module fuzz-smoke smoke mutation-smoke mmap-smoke router-smoke load-smoke chaos-smoke write-smoke
