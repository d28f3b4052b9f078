package standby

// AdvanceGapFactor exposes the coordinator's duty-cycle cap to the tests.
const AdvanceGapFactor = advanceGapFactor
