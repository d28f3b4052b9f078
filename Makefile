GO ?= go

.PHONY: all build vet fmt staticcheck test race stress allocs fuzz chaos leakcheck verify bench bench-e2e bench-compare loc

# Seed count for the chaos harness; override as `make chaos CHAOS_SEEDS=100`.
CHAOS_SEEDS ?= 10
# Base seed; CI overrides with a random value for nightly exploration. Failing
# runs print the exact seed to replay (go test ./internal/chaos -chaos.seed N).
CHAOS_SEEDBASE ?= 1

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean; prints the offending paths.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Static analysis beyond vet. Skipped with a notice when the staticcheck
# binary is not on PATH (the repo adds no module dependency for it); CI
# installs a pinned version, so findings always gate merges there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

test:
	$(GO) test ./...

# Race-check the concurrency-heavy trees: the telemetry registry/trace, the
# standby apply pipeline, the mining/journal/flush core (its flush now hands the
# SMUs what changed), the column store, its column deltas and
# its batch kernels, the parallel scan engine (views of a delta are captured
# under the latch flushes append under) and its SQL front end,
# the row store and the transaction table under it (readers of a block write a
# version's commit-SCN hint under the shared latch),
# role-based service routing, the standby readers (RAC home shares and the
# full-copy fleet are one type, both under ./internal/fleet/...) and their
# session router, the role-transition broker, the redo streams' wake-ups, the
# reconnecting TCP transport, and the public Session API (with it the
# event-driven pipeline's idle-latency and lost-wake-up tests).
race:
	$(GO) test -race ./internal/obs/... ./internal/redo/... ./internal/standby/... ./internal/core/... \
		./internal/rowstore/... ./internal/txn/... \
		./internal/imcs/... ./internal/scanengine/... ./internal/sqlmini/... \
		./internal/service/... ./internal/fleet/... ./internal/router/... \
		./internal/broker/... ./internal/transport/... .

# Concurrency regressions that only show as rare interleavings, 200 race-enabled
# iterations each: the flight recorder's concurrent-capture test (out-of-order
# ring inserts failed it about one run in six), and the event-driven redo →
# QuerySCN path's idle-latency and lost-wake-up tests, in-process and over TCP
# (a missed poke leaves a commit waiting for a heartbeat set too slow to help),
# and two population workers interning dictionaries into one store at once.
stress:
	$(GO) test -race -run TestFlightRecorderConcurrentCapture -count 200 ./internal/obs
	$(GO) test -race -run 'TestIdleCommitVisibleWithoutHeartbeat|TestNoLostWakeups' -count 200 .
	$(GO) test -race -run TestConcurrentBuildsIntern -count 200 ./internal/imcs

# Allocation guards of the scan path (steady-state scans allocate only their
# result, whatever share of their rows the row store serves; a second scan of
# the same invalid rows asks the transaction table nothing, and a scan of rows a
# column delta explains latches no block for them), of the redo wire
# path (shipping allocates nothing per record, receiving only the decoded
# record: a row CV is its packed image and its changed-column list), of redo
# apply (an applied CV adds the row version alone), of the row version itself
# (its size classes, and the heap 10 000 of them hold on a standby and on a
# primary) and of IMCU builds (a few objects per
# column, none per row; a merge reads exactly its re-read set from the row
# store). Not under -race: the race detector changes allocation counts.
allocs:
	$(GO) test -run 'AllocsPerRun|InvalidScanLookups|HeapPerVersion|VersionStaysInItsSizeClass' -v ./internal/rowstore
	$(GO) test -run 'AllocsPerRun|InvalidScanLookups|DeltaScanTouchesNoBlock' ./internal/scanengine ./internal/transport ./internal/redo ./internal/imcs ./internal/standby

# Native fuzzing of the decoders that read bytes from the wire — the frame
# reader and the record decoder, seeded from the corruption tables of their
# unit tests — of the packed compare kernel against its decode-then-compare
# reference (any width, window, mask and literal), of the word-at-a-time
# masked fold against decode-then-fold (any width or encoding, window, mask and
# set of aggregate kinds), and of the SQL front end down to the scan engine's
# Explain and Run (seeded from the bench's statement mix). go test fuzzes one target per run; the nightly job runs longer.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/redo
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME) ./internal/redo
	$(GO) test -run '^$$' -fuzz '^FuzzCmpMask$$' -fuzztime $(FUZZTIME) ./internal/imcs
	$(GO) test -run '^$$' -fuzz '^FuzzFoldPacked$$' -fuzztime $(FUZZTIME) ./internal/imcs
	$(GO) test -run '^$$' -fuzz '^FuzzParseAndCompile$$' -fuzztime $(FUZZTIME) ./internal/sqlmini

# Deterministic chaos harness: seeded fault injection against the full
# primary→transport→standby pipeline with a cross-node equivalence oracle
# (see DESIGN.md, "Fault model & testing"). Always race-enabled. TestWatchdog*
# covers the liveness watchdog: scripted permanent-outage stall detection and
# idle false-positive suppression. The high-pressure regression set always
# includes seed 4000 (the receiver livelock fixed in the transport layer).
# TestChaosConstantMerge repopulates after 1 % of a unit changed, so its long
# storms check images that hundreds of merges produced, fed from the units'
# column deltas. TestChaosStaleStore does the opposite — no repopulation, so
# invalid and tail rows pile up and the hybrid scans serve them from the deltas
# and, where a delta was dropped or never knew, on the row-store serving path.
chaos:
	$(GO) test -race -run 'TestChaos|TestWatchdog' -timeout 20m ./internal/chaos/ \
		-chaos.seeds $(CHAOS_SEEDS) -chaos.seedbase $(CHAOS_SEEDBASE)

# Goroutine-leak gate: deploys the full stack (TCP, a home-share and a
# full-copy standby reader, watchdog, metrics server), closes it, and fails if
# any pipeline goroutine survives teardown
# (internal/testutil.NoGoroutineLeak).
leakcheck:
	$(GO) test -race -count=1 -run TestCloseLeavesNoPipelineGoroutines .

verify: fmt vet staticcheck build test race stress allocs fuzz leakcheck chaos

# The root benchmark (warm failover against a cold repopulation), then IMCU
# construction: a full build of one
# bench-table unit and its repopulation by merge after 1, 12.5 and 50 % of the rows changed
# (12.5pct-delta: changed in two columns the unit's delta explains), and one
# patch appended to a delta; the packed compare and unpack kernels per bit
# width, each beside the decode-then-compare reference; then the bench's query
# classes over one clean unit, in ns a row, and over one unit with 1, 6 and 25 %
# of its rows invalid — served by the
# row store and, -delta, by the column delta — and a GROUP BY flush that brings the
# table's keys again or as many new ones; last the row image (pack, one number,
# one string, unpack) and the codec over a full-row record of the bench table.
bench:
	$(GO) test -bench Failover -benchmem -run '^$$' .
	$(GO) test -bench 'BuildIMCU|Repopulate|DeltaAppend|CmpMask|Unpack' -benchmem -run '^$$' ./internal/imcs
	$(GO) test -bench 'ScanClean|ScanInvalid|GroupFlush' -benchmem -run '^$$' ./internal/scanengine
	$(GO) test -bench 'Image|DecodeRecord|EncodeRecord' -benchmem -run '^$$' ./internal/rowstore ./internal/redo

# End-to-end benchmark (bench/, declared in BENCHMARK.json): RUNS seeds per
# workload from SEED into one result set, and the comparison of two result
# sets of one session — medians, quartiles and a verdict per workload and
# metric. Across sessions, go run ./cmd/trajectory chains same-session ratios.
# run.sh builds with go build, which stamps the commit into the set; go run
# would record "unknown".
RUNS ?= 10
SEED ?= 100
OUT ?= bench/out/results.json
bench-e2e:
	bash bench/run.sh --runs $(RUNS) --seed $(SEED) --out $(OUT)

HEAD ?= $(OUT)
bench-compare:
	@if [ -z "$(BASE)" ]; then echo "usage: make bench-compare BASE=parent.json [HEAD=change.json]"; exit 2; fi
	$(GO) run ./bench --compare $(BASE) $(HEAD)

# Non-test Go lines (wc -l) of every package outside bench/, and their total:
# the counts the ROADMAP's line budgets are kept in.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; all += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", all }'
