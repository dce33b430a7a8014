GO ?= go

.PHONY: check build vet fmt test examples race bench perf-gate scale-bench fuzz loc

check: fmt vet build test examples race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails if any file needs reformatting (CI runs the same gate).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

# The benchmark is a nested module that the root ./... skips, so its
# own tests run separately.
test:
	$(GO) test ./...
	cd benchmark && $(GO) test .

# examples runs every program under examples/, which the facade's users
# copy from: go build ./... only proves they compile. CI's check job
# runs the same target.
examples:
	@for d in examples/*/; do echo "== go run ./$$d"; $(GO) run ./$$d || exit 1; done

# The harness's concurrency surface: runner.Map itself, the
# experiment generators that fan out over it (including the chaos tests,
# which run fault-plan sweeps at -parallel 8), the engine they drive,
# the workload streams whose pooled generators those sweeps share, and
# the consistency lab (litmus suite + checker), whose determinism
# contract CI also exercises under the race detector. The second line is
# CI's sharded leg: every test whose name mentions shards, among them
# the cross-shard round trips that check each RMC pool stays on its
# shard.
race:
	$(GO) test -race ./internal/runner/ ./internal/experiments/ ./internal/sim/ ./internal/faults/ ./internal/workloads/ ./internal/consistency/ ./cmd/ncdsm-cluster/
	$(GO) test -race -run 'Shard' ./internal/sim/ ./internal/mesh/ ./internal/cluster/ ./internal/experiments/ ./internal/integration/

# bench runs the Go micro/macro benchmarks, then refreshes the tracked
# perf baseline (engine churn, RMC round trip, faulted fig7 sweep) in
# BENCH_sim.json. Commit the refreshed file when a hot-path change moves
# the numbers on purpose. go test never runs a benchmark body, so CI's
# check job runs each once (go test -run='^$' -bench=. -benchtime=1x
# ./...) to catch one an API change broke before the next bench.
bench:
	$(GO) test -bench=. -benchmem
	$(GO) run ./cmd/ncdsm-perf -out BENCH_sim.json

# scale-bench sweeps GOMAXPROCS over the paper-scale sharded benchmark
# (16x16 mesh, 8 shards) and records events/sec at each worker width in
# BENCH_scale.json. Informational, not a CI gate: parallel speedup is a
# property of the host, unlike the deterministic results it produces.
scale-bench:
	$(GO) run ./cmd/ncdsm-perf -scale BENCH_scale.json

# perf-gate re-measures and fails on >20% ns/op regression (after
# calibration rescaling for host speed) or any allocs/op or bytes/op
# growth against the committed BENCH_sim.json. CI runs this as the
# perf-smoke job.
perf-gate:
	$(GO) run ./cmd/ncdsm-perf -check BENCH_sim.json

# Short fuzz passes over the parsers of untrusted input and the
# consistency lab's state machines: the HNC frame integrity check that
# the fault injector's corrupted frames must never slip past, the HNC
# per-peer sequence tables (a bridge's and a verifier's streams to and
# from up to 2,048 peers against a map-backed reference), random
# litmus programs under every protocol with directory invariants held
# at every step, the -linklat, -bulk and -faults spec parsers (no
# panic; String renders exactly what Parse reads), the -mesh parser with
# the node-count check behind it, and the -sweep and -explore parsers
# (no panic; accepted specs round-trip), the -reserve parser (node
# IDs in range, sizes unwrapped, round-trip), the b-tree bulk load
# (random keys and fanout, then inserts: invariants, payloads, and the
# caller's key slice untouched), and the metrics renderers (random
# snapshots: JSON byte-identical to encoding/json, failing where it
# fails, and Prometheus text to the fmt-based renderer they replaced).
# CI runs the same 10-second smokes.
fuzz:
	$(GO) test -fuzz=FuzzFrameIntegrity -fuzztime=10s -run='^$$' ./internal/hnc
	$(GO) test -fuzz=FuzzPeerStreams -fuzztime=10s -run='^$$' ./internal/hnc
	$(GO) test -fuzz=FuzzLitmusProgram -fuzztime=10s -run='^$$' ./internal/consistency
	$(GO) test -fuzz=FuzzParseLinkLat -fuzztime=10s -run='^$$' ./internal/params
	$(GO) test -fuzz=FuzzParseBulk -fuzztime=10s -run='^$$' ./internal/params
	$(GO) test -fuzz=FuzzParsePlan -fuzztime=10s -run='^$$' ./internal/faults
	$(GO) test -fuzz=FuzzParseMesh -fuzztime=10s -run='^$$' .
	$(GO) test -fuzz=FuzzParseSweep -fuzztime=10s -run='^$$' ./internal/experiments
	$(GO) test -fuzz=FuzzParseExplore -fuzztime=10s -run='^$$' ./cmd/ncdsm-cluster
	$(GO) test -fuzz=FuzzParseReserve -fuzztime=10s -run='^$$' ./cmd/ncdsm-cluster
	$(GO) test -fuzz=FuzzBulkLoad -fuzztime=10s -run='^$$' ./internal/btree
	$(GO) test -fuzz=FuzzSnapshotRender -fuzztime=10s -run='^$$' ./internal/metrics

# loc prints the Go line totals outside benchmark/ (its own module),
# non-test and test: the two numbers ROADMAP tracks and each CHANGES.md
# entry reports as a delta.
loc:
	@printf 'non-test Go lines: %s\n' $$(find . -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)
	@printf 'test Go lines:     %s\n' $$(find . -path ./benchmark -prune -o -name '*_test.go' -print | xargs cat | wc -l)
