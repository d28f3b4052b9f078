package main

import (
	"errors"
	"math/rand"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/txn"
	"dbimadg/internal/workload"
)

const (
	opInsert = iota
	opUpdate
	opFetch
)

// oltpGen issues the paper's single-row OLTP operations against a primary:
// inserts of a fresh identity, updates of n1 or c1 (the columns Q1 and Q2
// filter on) of a random existing row, and index fetches. The same generator
// drives the live primary and the replay harness's log generation; only the
// mix differs.
type oltpGen struct {
	begin func() (*txn.Txn, error)
	fetch func(id int64) error
	tbl   *rowstore.Table
	rng   *rand.Rand
	// nextID is the identity the next insert takes; rows 0..nextID-1 exist.
	nextID               int64
	insertPct, updatePct int // the remainder are fetches
	retries              int64
}

// op performs one operation. It returns the operation kind and, for DML, the
// commit SCN. The spans it records hang under parent.
func (g *oltpGen) op(tb *spanBuf, parent int, opID uint64) (kind int, commit scn.SCN, err error) {
	p := g.rng.Intn(100)
	switch {
	case p < g.insertPct:
		kind = opInsert
	case p < g.insertPct+g.updatePct:
		kind = opUpdate
	default:
		sp := tb.start("txn.fetch", parent, opID)
		err = g.fetch(g.rng.Int63n(g.nextID))
		tb.end(sp)
		return opFetch, 0, err
	}
	schema := g.tbl.Schema()
	for attempt := 0; ; attempt++ {
		sp := tb.start("txn.begin", parent, opID)
		tx, err := g.begin()
		tb.end(sp)
		if err != nil {
			return kind, 0, err
		}
		sp = tb.start("txn.dml", parent, opID)
		if kind == opInsert {
			_, err = tx.Insert(g.tbl, workload.FillRow(schema, g.nextID, g.rng))
		} else {
			err = g.update(tx, schema)
		}
		tb.end(sp)
		if errors.Is(err, rowstore.ErrRowLocked) && attempt < 16 {
			_ = tx.Abort() // nothing was written; the retry draws another row
			g.retries++
			continue
		}
		if err != nil {
			_ = tx.Abort() // report the DML error, not the abort's
			return kind, 0, err
		}
		sp = tb.start("txn.commit", parent, opID)
		commit, err = tx.Commit()
		tb.end(sp)
		if err == nil && kind == opInsert {
			g.nextID++
		}
		return kind, commit, err
	}
}

func (g *oltpGen) update(tx *txn.Txn, schema *rowstore.Schema) error {
	id := g.rng.Int63n(g.nextID)
	if g.rng.Intn(2) == 0 {
		col := schema.ColIndex("n1")
		v := g.rng.Int63n(workload.NumDomain)
		return tx.UpdateByID(g.tbl, id, []uint16{uint16(col)}, func(r *rowstore.Row) {
			r.Nums[schema.Col(col).Slot()] = v
		})
	}
	col := schema.ColIndex("c1")
	v := strVal(g.rng.Int63n(workload.StrDomain))
	return tx.UpdateByID(g.tbl, id, []uint16{uint16(col)}, func(r *rowstore.Row) {
		r.Strs[schema.Col(col).Slot()] = v
	})
}
