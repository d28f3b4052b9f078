package scanengine

import (
	"fmt"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// groupRun runs a grouped query as Run does and returns its merged operator
// and how many workers ran it.
func (ex *Executor) groupRun(q *Query, snap scn.SCN) (*groupOp, int, error) {
	schema, plan, err := ex.validate(q)
	if err != nil {
		return nil, 0, err
	}
	pb := getPlanBuf()
	defer putPlanBuf(pb)
	_, tasks := ex.planTasks(q, schema, snap, pb)
	morsels := planMorsels(tasks, ex.morselRows())
	workers := ex.workers(q, len(morsels))
	merged, _ := ex.runMorsels(q, plan, schema, morsels, workers, snap, profNone, false)
	return merged.op.(*groupOp), workers, nil
}

// GroupsByValue runs a grouped query as Run does and reports how many groups
// reached the operator's by-value side table — through a hash insertion, that
// is — rather than by merge of a unit's sorted keys.
func (ex *Executor) GroupsByValue(q *Query, snap scn.SCN) (int, error) {
	o, _, err := ex.groupRun(q, snap)
	if err != nil {
		return 0, err
	}
	return o.byValue, nil
}

// GroupFlushes runs a grouped query as Run does and reports how many times its
// workers merged a unit-local table into their sorted tables by key, and how
// many workers ran it.
func (ex *Executor) GroupFlushes(q *Query, snap scn.SCN) (flushes, workers int, err error) {
	o, workers, err := ex.groupRun(q, snap)
	if err != nil {
		return 0, 0, err
	}
	return o.flushes, workers, nil
}

// SourcesAgree reads every row of tbl's units that a unit's column delta
// explains at snap through two sources — the window ⊕ delta, and the row image
// read at snap — and returns how many rows it compared, or where the two
// differ: on a NUMBER slot's value, a VARCHAR slot's value, or its code, which
// must be equal where the unit's dictionary holds the value and negative on
// both sides where it does not.
func (ex *Executor) SourcesAgree(tbl *rowstore.Table, snap scn.SCN) (int, error) {
	schema, one, compared := tbl.Schema(), []uint64{1}, 0
	pb := getPlanBuf()
	defer putPlanBuf(pb)
	_, tasks := ex.planTasks(&Query{Table: tbl}, schema, snap, pb)
	for _, ts := range tasks {
		for pos := 0; pos < ts.rows; pos++ {
			if ts.invalid[pos/64]&(1<<uint(pos%64)) == 0 {
				continue
			}
			blk, slot := ts.imcu.AddrOfRow(pos)
			entries, _, explained, deleted := ts.view.Row(-1, imcs.DeltaAddr(blk-ts.imcu.StartBlk, slot), snap)
			if !explained || deleted {
				continue
			}
			d := &deltaBatch{window: window{imcu: ts.imcu}, view: ts.view}
			d.add(pos, entries)
			img := &rowBatch{rows: make([]rowstore.Image, 1), blks: []rowstore.BlockNo{blk}, slots: []uint16{slot}, n: 1, imcu: ts.imcu}
			if ts.seg.Block(blk).ReadRows(img.slots, uint16(ts.seg.RowsPerBlock()), snap, ex.view, scn.InvalidTxn, img.rows, img.slots) != 1 {
				return compared, fmt.Errorf("row (%d, %d): explained by the delta, absent from the row store at %d", blk, slot, snap)
			}
			for s := 0; s < schema.NumberSlots(); s++ {
				var dv, iv [1]int64
				d.nums(dv[:], s, 0, one)
				img.nums(iv[:], s, 0, one)
				if dv != iv {
					return compared, fmt.Errorf("row (%d, %d) NUMBER slot %d: %d from the delta, %d from the image", blk, slot, s, dv[0], iv[0])
				}
			}
			for s := 0; s < schema.VarcharSlots(); s++ {
				var dv, iv [1]string
				var dc, ic [1]int64
				d.strs(dv[:], s, 0, one)
				img.strs(iv[:], s, 0, one)
				d.codes(dc[:], s, 0, one)
				img.codes(ic[:], s, 0, one)
				code, held := ts.imcu.StrCol(s).Code(iv[0])
				if dv != iv || held && (dc[0] != code || ic[0] != code) || !held && (dc[0] >= 0 || ic[0] >= 0) {
					return compared, fmt.Errorf("row (%d, %d) VARCHAR slot %d: %q code %d from the delta, %q code %d from the image (held %v as %d)",
						blk, slot, s, dv[0], dc[0], iv[0], ic[0], held, code)
				}
			}
			img.keep(nil)
			compared++
		}
	}
	return compared, nil
}
