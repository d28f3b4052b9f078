package chaos

import (
	"flag"
	"strings"
	"testing"

	"dbimadg/internal/transport"
)

// Seed selection: every test derives its seeds deterministically from
// -chaos.seedbase, so a plain `go test` run is reproducible, CI can randomize
// by passing a different base, and a single failing seed replays with
// -chaos.seed. Failure messages always carry the seed (Runner.fail).
var (
	nSeeds   = flag.Int("chaos.seeds", 2, "seeds to run per chaos test variant")
	seedBase = flag.Int64("chaos.seedbase", 1, "base the per-test seeds are derived from")
	oneSeed  = flag.Int64("chaos.seed", -1, "replay exactly this seed (overrides -chaos.seeds)")
)

func seeds() []int64 {
	if *oneSeed >= 0 {
		return []int64{*oneSeed}
	}
	out := make([]int64, *nSeeds)
	for i := range out {
		out[i] = *seedBase + int64(i)*7919
	}
	return out
}

// runSeed executes one chaos run and fails the test with the seed on any
// invariant violation.
func runSeed(t *testing.T, opts Options) *Result {
	t.Helper()
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("replay with -chaos.seed %d: %v", opts.Seed, err)
	}
	if res.Checks == 0 {
		t.Fatalf("seed %d: no oracle check ran", opts.Seed)
	}
	if res.Stalls != 0 {
		t.Fatalf("seed %d: watchdog reported %d stall(s) in a passing run (false positive)",
			opts.Seed, res.Stalls)
	}
	t.Logf("seed %d: %d home-share reader(s), old snapshots %d served / %d refused",
		opts.Seed, res.ShareReaders, res.OldSnapsServed, res.OldSnapsRefused)
	return res
}

// TestChaosInProc storms the in-process pipeline: concurrent writers, live
// probes, crash-restarts, quiesce oracles.
func TestChaosInProc(t *testing.T) {
	for _, seed := range seeds() {
		res := runSeed(t, Options{Seed: seed, Steps: 12, CrashRestarts: true})
		t.Logf("seed %d: %d checks, %d restarts", seed, res.Checks, res.Restarts)
	}
}

// TestChaosTCPFaults storms the TCP transport with the full fault mix (drop,
// truncate, delay, duplicate, reorder, CRC corruption) plus connection mass
// drops and crash-restarts that re-attach at the resume point.
func TestChaosTCPFaults(t *testing.T) {
	for _, seed := range seeds() {
		res := runSeed(t, Options{
			Seed:          seed,
			Steps:         10,
			UseTCP:        true,
			ReorderWindow: 4,
			CrashRestarts: true,
		})
		t.Logf("seed %d: %d checks, %d restarts, %d reconnects, faults %v",
			seed, res.Checks, res.Restarts, res.Reconnects, res.FaultCounts)
	}
}

// highPressureSeeds are always in the high-pressure regression set, on top of
// the -chaos.seedbase-derived seed. Seed 4000 is the sustained-fault-churn
// schedule that once livelocked the receiver: connections died every 2-3
// frames, the reorder window was discarded on every error (so delivered
// records never accumulated into a release), and backoff escalated to its cap
// during dedup-only recovery stretches. It pins the persistent-window and
// backoff-reset fixes in transport.Receiver.
var highPressureSeeds = []int64{4000}

// TestChaosHighPressure cranks the fault probabilities far above the default
// plan — most frames are faulted — and still expects full convergence.
func TestChaosHighPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("high-pressure run skipped in -short mode")
	}
	run := seeds()
	if *oneSeed < 0 {
		run = append(run[:1:1], highPressureSeeds...)
	}
	for _, seed := range run {
		res := runSeed(t, Options{
			Seed:   seed,
			Steps:  8,
			UseTCP: true,
			Faults: &transport.FaultPlan{
				DropProb:    0.05,
				PartialProb: 0.05,
				DelayProb:   0.20,
				DupProb:     0.15,
				ReorderProb: 0.15,
				CorruptProb: 0.05,
			},
			ReorderWindow: 4,
		})
		if res.Reconnects == 0 {
			t.Fatalf("seed %d: high-pressure plan never forced a reconnect", seed)
		}
		t.Logf("seed %d: %d checks, %d reconnects, %d corrupt, %d dups, faults %v",
			seed, res.Checks, res.Reconnects, res.Corrupt, res.Duplicates, res.FaultCounts)
	}
}

// TestChaosFleetChurn storms the pipeline while reader-fleet membership
// churns: readers are provisioned and drained as schedule steps, every
// quiesce point checks each reader's scan at its own QuerySCN three ways
// (reader hybrid, standby row store, primary CR), and at least one reader
// added mid-storm must reach Ready and pass the equivalence check.
func TestChaosFleetChurn(t *testing.T) {
	for _, seed := range seeds() {
		res := runSeed(t, Options{Seed: seed, Steps: 12, FleetChurn: true})
		if res.FleetChecks == 0 {
			t.Fatalf("seed %d: no fleet reader equivalence check ran", seed)
		}
		if res.FleetMidAddsReady == 0 {
			t.Fatalf("seed %d: no mid-run-added reader verified Ready (churns=%d adds=%d)",
				seed, res.FleetChurns, res.FleetMidAdds)
		}
		t.Logf("seed %d: %d checks (%d fleet), %d churns, %d mid-adds (%d verified Ready), final size %d",
			seed, res.Checks, res.FleetChecks, res.FleetChurns, res.FleetMidAdds,
			res.FleetMidAddsReady, res.FleetReaders)
	}
}

// TestChaosFleetChurnTCPRestarts layers fleet churn over the faulted TCP
// transport with standby crash-restarts: readers survive the master's crash
// (their stores are fleet-local), stay the rebuilt flusher's sink, and still
// pass per-reader equivalence at every quiesce.
func TestChaosFleetChurnTCPRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet churn over faulted TCP skipped in -short mode")
	}
	seed := seeds()[0]
	res := runSeed(t, Options{
		Seed:          seed,
		Steps:         10,
		UseTCP:        true,
		ReorderWindow: 4,
		CrashRestarts: true,
		FleetChurn:    true,
	})
	if res.FleetChecks == 0 || res.FleetMidAddsReady == 0 {
		t.Fatalf("seed %d: fleet oracle under-ran: %+v", seed, res)
	}
	t.Logf("seed %d: %d fleet checks, %d restarts, %d reconnects, %d churns",
		seed, res.FleetChecks, res.Restarts, res.Reconnects, res.FleetChurns)
}

// TestChaosConstantMerge runs long storms with repopulation triggered by 1 % of
// a unit's rows: nearly every equivalence check then reads images that are the
// product of many merges. Both crash-restart the standby — units a restart
// coarse-invalidated are rebuilt in full — one in-process, the other with the
// transport faults over TCP.
func TestChaosConstantMerge(t *testing.T) {
	for _, seed := range seeds() {
		for _, opts := range []Options{
			{Steps: 250},
			{Steps: 150, UseTCP: true, ReorderWindow: 4},
		} {
			opts.Seed, opts.CrashRestarts, opts.ConstantMerge = seed, true, true
			res := runSeed(t, opts)
			if res.UnitsMerged < 100 {
				t.Fatalf("seed %d: %d repopulations by merge (%d full), want hundreds", seed, res.UnitsMerged, res.FullRebuilds)
			}
			t.Logf("seed %d: %d checks, %d restarts, %d reconnects, %d merges, %d full rebuilds",
				seed, res.Checks, res.Restarts, res.Reconnects, res.UnitsMerged, res.FullRebuilds)
		}
	}
}

// TestChaosStaleStore runs the storms with repopulation off, so that invalid
// and tail rows pile up and the oracle's hybrid scans take a large share of
// their rows — most, in storms without a restart to rebuild the store —
// through the row-store serving path: over the faulted TCP transport with
// crash-restarts, and into a failover. Nothing merges, so committed updates of
// captured rows stay invalid for the whole storm: the unit deltas' home ground.
// The generator updates n1, c1 (to values inside and outside the dictionaries)
// or both, the same row twice in one transaction and in consecutive ones, and
// deletes patched rows; every few steps a random unit forgets its delta, and
// the rows it explained must come out of the row store the same.
func TestChaosStaleStore(t *testing.T) {
	var fromDelta int64
	var drops int
	for _, seed := range seeds() {
		for _, opts := range []Options{
			{Steps: 40, UseTCP: true, ReorderWindow: 4, CrashRestarts: true},
			{Steps: 20, UseTCP: true, ReorderWindow: 4, Transition: TransitionFailover},
		} {
			opts.Seed, opts.StaleStore = seed, true
			res := runSeed(t, opts)
			if res.HybridRowBlocks == 0 {
				t.Fatalf("seed %d: the hybrid scans never took the row-store serving path", seed)
			}
			fromDelta, drops = fromDelta+res.HybridRowsDelta, drops+res.DeltaDrops
			// A unit that doubles, or that a restart coarse-invalidated, is
			// still rebuilt.
			t.Logf("seed %d: %d checks, %d restarts, %d reconnects, transition %q, %d merges, %d full rebuilds, %d blocks read on the row path, %d rows from deltas, %d deltas dropped",
				seed, res.Checks, res.Restarts, res.Reconnects, res.Transition, res.UnitsMerged, res.FullRebuilds, res.HybridRowBlocks, res.HybridRowsDelta, res.DeltaDrops)
		}
	}
	if fromDelta == 0 || drops == 0 {
		t.Fatalf("%d rows served from deltas, %d deltas dropped over all storms; want both", fromDelta, drops)
	}
}

// TestChaosFailover runs the storm over TCP and then fails over under load:
// the standby is promoted while redo is still in flight and its retained
// store must agree with the row store, before and after new DML.
func TestChaosFailover(t *testing.T) {
	seed := seeds()[0]
	res := runSeed(t, Options{
		Seed:          seed,
		Steps:         6,
		UseTCP:        true,
		ReorderWindow: 4,
		Transition:    TransitionFailover,
	})
	if res.Transition != "failover" {
		t.Fatalf("seed %d: transition = %q", seed, res.Transition)
	}
}

// TestChaosSwitchover swaps roles under load and requires the rebuilt standby
// to converge on the promoted node's state.
func TestChaosSwitchover(t *testing.T) {
	seed := seeds()[0]
	res := runSeed(t, Options{
		Seed:       seed,
		Steps:      6,
		Transition: TransitionSwitchover,
	})
	if res.Transition != "switchover" {
		t.Fatalf("seed %d: transition = %q", seed, res.Transition)
	}
}

// TestChaosMutationSelfTest proves the oracle has teeth: with the miner's
// journal-skip bug armed (one invalidation record silently dropped), the
// equivalence check MUST report a divergence — and without the bug, the same
// schedule must pass. A harness whose oracle cannot catch a planted lost
// invalidation would green-light real ones.
func TestChaosMutationSelfTest(t *testing.T) {
	seed := seeds()[0]
	if _, err := Run(Options{Seed: seed, Steps: 0}); err != nil {
		t.Fatalf("clean baseline failed (replay with -chaos.seed %d): %v", seed, err)
	}
	_, err := Run(Options{Seed: seed, Steps: 0, MutateSkipJournal: 1})
	if err == nil {
		t.Fatalf("seed %d: oracle missed the planted lost-invalidation bug", seed)
	}
	if !strings.Contains(err.Error(), "diverge") {
		t.Fatalf("seed %d: planted bug surfaced as the wrong failure: %v", seed, err)
	}
	t.Logf("seed %d: planted bug detected: %v", seed, err)
}
