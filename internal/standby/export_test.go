package standby

import (
	"dbimadg/internal/redo"
	"dbimadg/internal/scn"
)

// AdvanceGapFactor exposes the coordinator's duty-cycle cap to the tests.
const AdvanceGapFactor = advanceGapFactor

// ApplyCV exposes one recovery worker's step — apply the change vector, mine
// it — to the allocation guard.
func (inst *Instance) ApplyCV(worker int, recSCN scn.SCN, cv *redo.CV) {
	inst.applyCV(worker, recSCN, cv)
}
