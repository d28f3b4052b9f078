package standby

import (
	"fmt"
	"time"

	"dbimadg/internal/imcs"
	"dbimadg/internal/scn"
)

// FinishRecovery performs terminal recovery for a role transition: it waits
// until the log merger has consumed every attached redo thread to its end
// (the transport must already have been closed so the mirrors ended), waits
// for the recovery workers to drain their queues, stops the pipeline, and
// then runs one final QuerySCN advancement over the now-quiescent instance so
// that every change vector shipped before the failure becomes query-visible.
// It returns the final QuerySCN — the consistency point the promoted primary
// opens at.
//
// Ordering matters: Stop may only close the worker channels once nothing is
// queued (a stopped worker abandons its queue), so end-of-redo and drain are
// awaited first.
func (inst *Instance) FinishRecovery(timeout time.Duration) (scn.SCN, error) {
	if !inst.started {
		return 0, fmt.Errorf("standby: finish recovery: instance not started")
	}
	deadline := time.Now().Add(timeout)
	select {
	case <-inst.endOfRedo:
	case <-time.After(timeout):
		return 0, fmt.Errorf("standby: finish recovery: redo apply did not reach end-of-redo within %v", timeout)
	}
	for inst.applyBacklog() > 0 {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("standby: finish recovery: apply workers did not drain within %v", timeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
	inst.Stop()
	final := inst.terminalAdvance()
	// Every shipped commit was covered by the terminal advancement; anything
	// still open (e.g. records shipped but never merged before the stop) is
	// explicitly truncated so no span outlives the transition.
	inst.freshness.TruncateOpen("failover")
	return final, nil
}

// terminalAdvance runs one QuerySCN advancement on a stopped instance, to the
// dispatch frontier: the workers drained, so everything dispatched is applied.
// Any advancement the coordinator abandoned at Stop is completed here —
// claimed worklink batches are always flushed by their claimants before exit,
// so re-chopping the commit table picks up exactly the unflushed remainder.
func (inst *Instance) terminalAdvance() scn.SCN {
	target := scn.SCN(inst.lastDispatched.Load())
	if prev := scn.SCN(inst.watermark.Load()); target < prev {
		target = prev
	}
	inst.watermark.Store(uint64(target))
	if target > inst.QuerySCN() {
		inst.advanceTo(target, false)
	}
	return inst.QuerySCN()
}

// RollbackInFlight aborts every transaction still active in the replicated
// transaction table — transactions whose Begin shipped but whose Commit never
// did before the primary died — and removes their anchors from the IM-ADG
// journal. Marking them aborted makes their row versions permanently
// invisible to Consistent Read, which is the promotion-time equivalent of
// undo-based rollback. It returns how many transactions were rolled back.
func (inst *Instance) RollbackInFlight() int {
	_, _, journal, _, _, _ := inst.components()
	ids := inst.txns.AbortActive()
	for _, id := range ids {
		journal.Remove(id)
	}
	return len(ids)
}

// RestartPopulation swaps in a fresh population engine over the RETAINED
// column store and starts it. snap supplies population snapshot SCNs for the
// new role (on a promoted primary: the commit-gate snapshot). The store is
// deliberately not rebuilt — IMCUs populated while the instance was a standby
// stay valid, SMU invalidations and all, which is what makes promotion warm:
// the engine's coverage check skips every retained unit, so only genuinely
// missing ranges populate.
//
// The home filter is dropped: a promoted master serves all block ranges, so
// ranges previously homed on reader instances populate here over time.
func (inst *Instance) RestartPopulation(snap imcs.Snapshotter) {
	pop := inst.cfg.Population()
	pop.Trace = inst.trace
	inst.stateMu.Lock()
	inst.engine = imcs.NewEngine(inst.store, inst.txns, snap, inst.populationTargets, pop)
	eng := inst.engine
	inst.stateMu.Unlock()
	eng.Start()
}
