package scanengine

import "dbimadg/internal/scn"

// GroupsByValue runs a grouped query as Run does and reports how many groups
// reached the operator's by-value side table — through a hash insertion, that
// is — rather than by merge of a unit's sorted keys.
func (ex *Executor) GroupsByValue(q *Query, snap scn.SCN) (int, error) {
	schema, plan, err := ex.validate(q)
	if err != nil {
		return 0, err
	}
	pb := getPlanBuf()
	defer putPlanBuf(pb)
	_, tasks := ex.planTasks(q, schema, snap, pb)
	morsels := planMorsels(tasks, ex.morselRows())
	workers := max(min(ex.effectiveParallel(q), len(morsels)), 1)
	merged, _ := ex.runMorsels(q, plan, schema, morsels, workers, snap, profNone, false)
	return merged.op.(*groupOp).byValue, nil
}
