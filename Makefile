# Targets mirror .github/workflows/ci.yml so local runs match CI exactly.

GO ?= go

.PHONY: build test race loc bench bench-substrate bench-module bench-json bench-compare fmt fmt-check vet staticcheck smoke mutation-smoke mmap-smoke router-smoke load-smoke chaos-smoke write-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Non-test Go lines outside the frozen benchmark/ module (and its build
# directory): the one number every simplicity PR reports, counted one way.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l

# One iteration of every benchmark: a smoke test, not a measurement.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Alloc-regression guards on the pooled hot-path substrate: each
# BenchmarkSubstrate* measures steady-state allocs/op with AllocsPerRun and
# FAILS above its committed ceiling (~0). CI runs this on every push.
bench-substrate:
	$(GO) test -bench=BenchmarkSubstrate -benchtime=1x -run='^$$' .

# The frozen benchmark (BENCHMARK.json, benchmark/) is its own Go module, so
# the root ./... patterns skip it; this keeps an API change in the main
# module from breaking it unnoticed.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

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
		-scenario write-heavy -qps 150 -duration 5s -warmup 1s \
		-record-suffix @serial -commit-max-batch 1 -out $(BENCH_OUT)
	$(GO) run ./cmd/seaload -selfserve -selfserve-journal -scale 0.25 \
		-scenario write-heavy -qps 150 -duration 5s -warmup 1s \
		-record-suffix @group-commit -out $(BENCH_OUT)
	$(GO) run ./cmd/seaload -selfserve -selfserve-journal -scale 1.0 \
		-writers 32 -direct -duration 3s -warmup 500ms \
		-record-suffix @serial -commit-max-batch 1 -out $(BENCH_OUT)
	$(GO) run ./cmd/seaload -selfserve -selfserve-journal -scale 1.0 \
		-writers 32 -direct -duration 3s -warmup 500ms \
		-record-suffix @group-commit -out $(BENCH_OUT)

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

# End-to-end snapshot-serving smoke, mirroring the CI snapshot-smoke job:
# datagen → pack → boot seaserve from the snapshot → curl it.
smoke:
	@rm -rf /tmp/sea-smoke && mkdir -p /tmp/sea-smoke
	$(GO) build -o /tmp/sea-smoke/ ./cmd/...
	/tmp/sea-smoke/datagen -dataset facebook -scale 0.3 -out /tmp/sea-smoke/fb.txt
	/tmp/sea-smoke/seacli pack -load /tmp/sea-smoke/fb.txt -out /tmp/sea-smoke/fb.snap
	@/tmp/sea-smoke/seaserve -snapshot /tmp/sea-smoke/fb.snap -addr 127.0.0.1:8971 & \
	pid=$$!; \
	for i in $$(seq 1 50); do curl -sf http://127.0.0.1:8971/healthz >/dev/null && break; sleep 0.2; done; \
	curl -sf http://127.0.0.1:8971/healthz && echo && \
	curl -sf "http://127.0.0.1:8971/search?q=0&k=2&method=structural" >/dev/null && \
	curl -sf http://127.0.0.1:8971/graphs && echo && \
	echo "smoke OK"; status=$$?; kill $$pid 2>/dev/null; exit $$status

# End-to-end live-update smoke, mirroring the CI mutation-smoke job: boot a
# journaled snapshot, POST /admin/mutate, check /search reflects the new
# edges with zero hot-swaps, compact, SIGTERM-drain, reboot from the
# compacted snapshot and check the re-query answers identically.
mutation-smoke:
	@rm -rf /tmp/sea-mut-smoke && mkdir -p /tmp/sea-mut-smoke
	$(GO) build -o /tmp/sea-mut-smoke/ ./cmd/...
	/tmp/sea-mut-smoke/datagen -dataset facebook -scale 0.3 -out /tmp/sea-mut-smoke/fb.txt
	/tmp/sea-mut-smoke/seacli pack -load /tmp/sea-mut-smoke/fb.txt -out /tmp/sea-mut-smoke/fb.snap
	SMOKE_DIR=/tmp/sea-mut-smoke sh scripts/mutation-smoke.sh

# End-to-end zero-copy serving smoke, mirroring the CI mmap-smoke job: pack
# a compressed v2 snapshot, boot seaserve mapped, verify /graphs reports
# mapped:true, /search and /admin/mutate work over the mapped base, and the
# mapped boot wall-time stays flat across a 4× snapshot-size increase.
mmap-smoke:
	@rm -rf /tmp/sea-mmap-smoke && mkdir -p /tmp/sea-mmap-smoke
	$(GO) build -o /tmp/sea-mmap-smoke/ ./cmd/...
	SMOKE_DIR=/tmp/sea-mmap-smoke sh scripts/mmap-smoke.sh

# End-to-end distributed-serving smoke, mirroring the CI router-smoke job:
# boot a journaled primary, two -follow replicas, and a searouter; mutate
# through the router, check followers catch up and serve /batch shards,
# kill -9 the primary, and check the router promotes a follower and keeps
# serving reads and writes.
router-smoke:
	@rm -rf /tmp/sea-router-smoke && mkdir -p /tmp/sea-router-smoke
	$(GO) build -o /tmp/sea-router-smoke/ ./cmd/...
	/tmp/sea-router-smoke/datagen -dataset facebook -scale 0.3 -out /tmp/sea-router-smoke/fb.txt
	/tmp/sea-router-smoke/seacli pack -load /tmp/sea-router-smoke/fb.txt -out /tmp/sea-router-smoke/fb.snap
	SMOKE_DIR=/tmp/sea-router-smoke sh scripts/router-smoke.sh

# End-to-end observability smoke, mirroring the CI load-smoke job: boot
# seaserve on a packed snapshot, run seaload open-loop for 5s, assert the
# record carries p50/p99/p999 with zero errors, and assert /metrics exposes
# the per-stage latency histograms with populated counts.
load-smoke:
	@rm -rf /tmp/sea-load-smoke && mkdir -p /tmp/sea-load-smoke
	$(GO) build -o /tmp/sea-load-smoke/ ./cmd/...
	/tmp/sea-load-smoke/datagen -dataset facebook -scale 0.3 -out /tmp/sea-load-smoke/fb.txt
	/tmp/sea-load-smoke/seacli pack -load /tmp/sea-load-smoke/fb.txt -out /tmp/sea-load-smoke/fb.snap
	SMOKE_DIR=/tmp/sea-load-smoke sh scripts/load-smoke.sh

# End-to-end fault-tolerance smoke, mirroring the CI chaos-smoke job: boot
# primary + followers + a router with fault injection armed on its read
# path, drive it with seaload while kill -9ing the primary, and assert
# reads keep flowing within the error budget, overloaded nodes shed with
# 429 + Retry-After, and post-chaos answers stay consistent.
chaos-smoke:
	@rm -rf /tmp/sea-chaos-smoke && mkdir -p /tmp/sea-chaos-smoke
	$(GO) build -o /tmp/sea-chaos-smoke/ ./cmd/...
	/tmp/sea-chaos-smoke/datagen -dataset facebook -scale 0.3 -out /tmp/sea-chaos-smoke/fb.txt
	/tmp/sea-chaos-smoke/seacli pack -load /tmp/sea-chaos-smoke/fb.txt -out /tmp/sea-chaos-smoke/fb.snap
	SMOKE_DIR=/tmp/sea-chaos-smoke sh scripts/chaos-smoke.sh

# End-to-end group-commit smoke, mirroring the CI write-smoke job: boot a
# journaled primary plus a follower, fire a 32-writer /admin/mutate burst,
# assert every acknowledged mutation is journaled with one batch record per
# flush (version < mutation count: the burst coalesced), the follower
# converges to the same answer, and a SIGTERM-drain + reboot replays the
# batch records to the identical version and answer.
write-smoke:
	@rm -rf /tmp/sea-write-smoke && mkdir -p /tmp/sea-write-smoke
	$(GO) build -o /tmp/sea-write-smoke/ ./cmd/...
	/tmp/sea-write-smoke/datagen -dataset facebook -scale 0.3 -out /tmp/sea-write-smoke/fb.txt
	/tmp/sea-write-smoke/seacli pack -load /tmp/sea-write-smoke/fb.txt -out /tmp/sea-write-smoke/fb.snap
	SMOKE_DIR=/tmp/sea-write-smoke sh scripts/write-smoke.sh

ci: fmt-check vet staticcheck build race bench bench-substrate bench-module smoke mutation-smoke mmap-smoke router-smoke load-smoke chaos-smoke write-smoke
