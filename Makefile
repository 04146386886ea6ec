# Single source of truth for the commands CI runs, so "works locally, fails
# in CI" never involves a command mismatch. `make ci` is exactly the test
# job; `make lint` is exactly the lint job.

GO ?= go
BIN := bin

.PHONY: all build test race lint vet analyze fmt tidy vuln bench bench-check benchguard metrics crash partition-soak tenant-soak scale-smoke fuzz ci clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -count=1 ./...

# The repo's custom analyzer suite (internal/lint) driven through the real
# `go vet -vettool` protocol. Zero unsuppressed findings is the bar; false
# positives are silenced in place with a reasoned `//lint:allow` directive.
$(BIN)/vetlivesim: FORCE
	$(GO) build -o $(BIN)/vetlivesim ./cmd/vetlivesim
FORCE:

vet: $(BIN)/vetlivesim
	$(GO) vet ./...
	$(GO) vet -vettool=$(BIN)/vetlivesim ./...

$(BIN)/escapecheck: FORCE
	$(GO) build -o $(BIN)/escapecheck ./cmd/escapecheck

# analyze is the full static-analysis suite (DESIGN.md §8): the seven AST
# analyzers run standalone in dependency order with whole-program fact
# propagation, then the compiler-assisted hotpathescape pass recompiles
# every //livesim:hotpath package with -m=2. Budgeted like benchguard: the
# suite must finish inside ANALYZE_BUDGET seconds (timeout exits 124) so it
# stays cheap enough to gate every push.
ANALYZE_BUDGET ?= 60
analyze: $(BIN)/vetlivesim $(BIN)/escapecheck
	timeout $(ANALYZE_BUDGET) $(BIN)/vetlivesim -escape ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

tidy:
	$(GO) mod tidy -diff

# govulncheck is not vendored; run it when installed (CI installs it), warn
# otherwise so offline dev machines are not blocked.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

lint: fmt tidy vet

bench:
	$(GO) test -run '^$$' -bench 'Fanout|EdgePoll|Ingest|ControlRecovery' -benchmem -benchtime=1x .

# crash is the recovery soak (DESIGN.md §6.2): kill the ingest origin
# mid-broadcast, corrupt the journal tail, restart, and assert every viewer
# still sees every chunk exactly once. Always under -race.
crash:
	$(GO) test -race -count=1 -run 'TestPlatformOriginCrashRecoverySoak' -v ./internal/core/

# partition-soak is the control-plane failure soak (DESIGN.md §6.3): crash
# the control plane mid-broadcast with a torn journal tail, and separately
# cut the serving edge's (and the origins') links to control, asserting in
# both cases that every HLS and RTMP viewer still receives every chunk
# exactly once and no broadcast is falsely ended. Always under -race; the
# fault schedules are seeded, so a failure replays deterministically.
partition-soak:
	$(GO) test -race -count=1 -run 'TestPlatformControlCrashRecoverySoak|TestPlatformControlEdgePartitionSoak' -v ./internal/core/

# tenant-soak is the noisy-neighbor soak (DESIGN.md §11): one over-quota
# tenant hammers joins while two compliant tenants stream through a control
# crash/recover. Asserts the loud tenant throttles at exactly its plan
# limits, compliant viewers see every chunk exactly once, and the journaled
# usage rollups match the per-tenant delivery metrics. Always under -race.
tenant-soak:
	$(GO) test -race -count=1 -run 'TestPlatformNoisyNeighborSoak' -v ./internal/core/

# scale-smoke runs a 1:200-scale simulated day through the million-viewer
# event engine (DESIGN.md §10) under -race, with the real-socket fidelity
# slice watching a concurrent loopback broadcast, and asserts the Fig. 11
# delay shape. Seeded, so a failure replays deterministically.
scale-smoke:
	$(GO) test -race -count=1 -run 'TestScaleSmoke' -v ./internal/viewersim/

# fuzz smoke: a short bounded run of the decoders that read bytes from outside
# the process — the journal (round-trip encode/decode and replay over
# corrupted logs), the chunk codec every HLS body goes through (zero-copy
# decode: the sealed form is the consumed input, frames alias it, re-encoding
# reproduces it), the RTMP message reader, and the control plane's two
# outside inputs: its journal (replay over byte soup, then extend it) and its
# HTTP handler (arbitrary method/path/query/body/key against the route table).
# `go test -fuzz` accepts one target per invocation, hence one run each.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzRecordRoundTrip' -fuzztime 10s ./internal/journal/
	$(GO) test -run '^$$' -fuzz 'FuzzReplay' -fuzztime 10s ./internal/journal/
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalChunk' -fuzztime 10s ./internal/media/
	$(GO) test -run '^$$' -fuzz 'FuzzReadMessage' -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzControlJournalRecovery' -fuzztime 10s ./internal/control/
	$(GO) test -run '^$$' -fuzz 'FuzzControlHandler' -fuzztime 10s ./internal/control/

# bench-check vets and unit-tests the frozen benchmark module (bench/, its own
# go.mod with `replace repro => ../`) against the working tree, so an API
# break against it fails here instead of first in the pipeline's driver
# build. It writes nothing under bench/.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# benchguard re-runs the hot-path benchmarks and fails on allocs/op
# regressions against the recorded baselines in BENCH_fanout.json.
benchguard:
	$(GO) run ./cmd/benchguard

# metrics boots a small platform, drives one scripted broadcast through
# every layer, and prints the registry snapshot — the smoke test that the
# delay-component histograms fill with live observations.
metrics:
	$(GO) run ./cmd/livesim -snapshot

ci: build bench-check race lint analyze vuln crash partition-soak tenant-soak scale-smoke fuzz benchguard metrics

clean:
	rm -rf $(BIN)
