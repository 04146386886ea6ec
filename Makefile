# Single source of truth for the commands CI runs, so "works locally, fails
# in CI" never involves a command mismatch: every step of ci.yml is a target
# here. `make lint` is the lint job; `make ci` is the test job followed by the
# lint job. `race` runs every Go test under -race, so the named slices of it
# (fanout-race … metrics-smoke, surface) are local replay recipes, not CI
# steps — except scale-smoke, whose -cpu 1,2,4 runs the simulated day at three
# partition counts that `race`'s one GOMAXPROCS does not. `allocs` is a CI
# step beside `race` for the opposite reason: it runs the exact allocation
# budgets without the race detector, where the ones that skip under it bind.

GO ?= go
BIN := bin

.PHONY: all build test race allocs fanout-race chaos lint vet analyze fmt tidy vuln bench-check metrics metrics-smoke crash partition-soak tenant-soak scale-smoke surface fuzz ci clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -count=1 ./...

# allocs runs every exact allocation budget (tests named *Alloc*, and the
# by-reference serve tests that pin zero) without -race: some budgets count
# net/http's allocations, which the race detector changes, so they skip under
# `race` and are enforced here.
allocs:
	$(GO) test -count=1 -run 'Alloc|ByReference' ./internal/...

# fanout-race is the RTMP fan-out concurrency slice of `race`: join/leave
# churn, acceptFrame and the relay ring (eviction at its boundary, joins
# while frames are written, an evicted viewer's broken transport and
# redial, what a viewer costs), the batched relay at both sockets
# (wire.Reader's read batches, the viewer push batches and their byte
# bound) and the relay-buffer aliasing they share, and the handshake
# deadline every session starts under.
fanout-race:
	$(GO) test -race -count=1 -run 'ConcurrentJoinLeaveFanout|AcceptFrame|SlowViewer|Ring|Evict|JoinBytes|MemoryFlat|Batch|Arrival|TapFrame|Reader|ReadEncoded|HandshakeReadHasDeadline' ./internal/rtmp/ ./internal/wire/

# vet is the toolchain's own analyzers and nothing else.
vet:
	$(GO) vet ./...

# analyze is the one run of the repo's custom static-analysis suite
# (internal/lint, DESIGN.md §8): vetlivesim loads the program once, runs the
# six AST analyzers in dependency order against one in-memory fact store,
# then recompiles every //livesim:hotpath package with -m=2 for
# hotpathescape. Zero unsuppressed findings is the bar; false positives are
# silenced in place with a reasoned `//lint:allow` directive. Budgeted: the
# suite must finish inside 60 seconds (timeout exits 124) so it stays cheap
# enough to gate every push.
analyze:
	$(GO) build -o $(BIN)/vetlivesim ./cmd/vetlivesim
	timeout 60 $(BIN)/vetlivesim ./...

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

lint: fmt tidy vet analyze

# chaos is the fault-injection soak family in internal/core (every test with
# Chaos in its name). Always under -race.
chaos:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/core/

# crash is the recovery soak (DESIGN.md §6.2): kill the ingest origin
# mid-broadcast, corrupt the journal tail, restart, and assert every viewer
# still sees every chunk exactly once; beside it, the origin test that a
# broadcast the janitor removed stays removed across a crash. Always under
# -race.
crash:
	$(GO) test -race -count=1 -run 'TestPlatformOriginCrashRecoverySoak' -v ./internal/core/
	$(GO) test -race -count=1 -run 'TestOriginRemoveSurvivesRecovery' -v ./internal/cdn/

# partition-soak is the control-plane failure soak (DESIGN.md §6.3): crash
# the control plane mid-broadcast with a torn journal tail, and separately
# cut the serving edge's (and the origins') links to control, asserting in
# both cases that every HLS and RTMP viewer still receives every chunk
# exactly once and no broadcast is falsely ended. Always under -race; the
# fault schedules are seeded, so a failure replays deterministically.
partition-soak:
	$(GO) test -race -count=1 -run 'TestPlatformControlCrashRecoverySoak|TestPlatformControlEdgePartitionSoak' -v ./internal/core/

# tenant-soak is the tenancy soak pair (DESIGN.md §11). The noisy-neighbor
# soak: one over-quota tenant hammers joins while two compliant tenants
# stream through a control crash/recover; the loud tenant throttles at
# exactly its plan limits, compliant viewers see every chunk exactly once,
# and the journaled usage rollups equal what each tenant's delivery meter
# counted. The outage test: a publisher that reconnects to a restarted origin
# while control is down stays metered, so the rollup covers every frame its
# viewer received. Always under -race.
tenant-soak:
	$(GO) test -race -count=1 -run 'TestPlatformNoisyNeighborSoak|TestPlatformOutageReconnectStaysMetered' -v ./internal/core/

# scale-smoke runs a 1:200-scale simulated day through the million-viewer
# event engine (DESIGN.md §10) under -race, with the real-socket fidelity
# slice watching a concurrent loopback broadcast, and asserts the Fig. 11
# delay shape; beside it the partition-invariance test and the equivalence
# test against the goroutine reference engine, whose coordinator hands each
# wheel callback to a goroutine and back. -cpu 1,2,4 runs all three at three
# GOMAXPROCS values, so the day splits into 1, 2 and 4 partitions. Seeded,
# so a failure replays deterministically.
scale-smoke:
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'TestScaleSmoke|TestWheelRepeatedRunsByteIdentical|TestWheelMatchesGoroutineReference' -v ./internal/viewersim/

# surface prints the two counts ROADMAP's SURFACE item cuts, each against
# its pin: the exported options of every *Config and *Options struct
# (TestExportedOptionCount) and every exported func or method under
# internal/ that no other package's program code calls
# (TestUnusedExportCount). -v lists both without a failure.
surface:
	$(GO) test -count=1 -run 'TestExportedOptionCount|TestUnusedExportCount' -v ./internal/lint/

# fuzz smoke: a short bounded run of every decoder and handler that reads
# bytes from outside the process — the journal (round-trip encode/decode and
# replay over corrupted logs), the media codecs every HLS body goes through
# (frames, chunks — zero-copy decode: the sealed form is the consumed input,
# frames alias it, re-encoding reproduces it — and chunklists), the RTMP
# message reader and its handshake and signed-frame payloads, the HLS handler
# (arbitrary method/path/query against a small store), and the control
# plane's two outside inputs: its journal (replay over byte soup, then extend
# it) and its HTTP handler (arbitrary method/path/query/body/key against the
# route table) — plus the edge cache, whose broadcast IDs come from viewers
# (an op sequence of origin ingest/end/Remove and edge polls/Evict over known
# and fuzzed IDs: no record for an ID never pulled, not-found for an ID never
# ingested) — and the pooled JSON decoder every HTTP body of the platform goes
# through (arbitrary pairs of bodies through one decoder, against
# json.Unmarshal). `go test -fuzz` accepts one target per invocation, hence
# one run per <package>:<target> entry.
FUZZ_TARGETS := \
	journal:FuzzRecordRoundTrip \
	journal:FuzzReplay \
	media:FuzzUnmarshalFrame \
	media:FuzzUnmarshalChunk \
	media:FuzzParseChunkList \
	wire:FuzzReadMessage \
	wire:FuzzUnmarshalHandshake \
	wire:FuzzUnmarshalSignedFrame \
	hls:FuzzHLSHandler \
	control:FuzzControlJournalRecovery \
	control:FuzzControlHandler \
	cdn:FuzzEdgeRequests \
	resilience:FuzzDecodeJSON

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime 10s ./internal/$${t%%:*}/; \
	done

# bench-check vets and unit-tests the frozen benchmark module (bench/, its own
# go.mod with `replace repro => ../`) against the working tree, so an API
# break against it fails here instead of first in the pipeline's driver
# build. It writes nothing under bench/.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# metrics boots a small platform, drives one scripted broadcast through
# every layer, and prints the registry snapshot — the smoke test that the
# delay-component histograms fill with live observations.
metrics:
	$(GO) run ./cmd/livesim -snapshot

# metrics-smoke checks the live /metrics and /debug/vars endpoints of a
# running platform.
metrics-smoke:
	$(GO) test -count=1 -run 'PlatformMetricsEndpoints' ./internal/core/

ci: build bench-check race allocs scale-smoke fuzz metrics lint vuln

clean:
	rm -rf $(BIN)
