// Package core implements the DBIM-on-ADG infrastructure — the paper's
// primary contribution (§III): the Mining Component that piggybacks on
// recovery workers to sniff change vectors, the IM-ADG Journal that buffers
// invalidation records per transaction, the IM-ADG Commit Table that orders
// committed transactions by commitSCN for cheap chopping into worklinks, the
// Invalidation Flush Component with cooperative flush, the coarse
// invalidation fallback after instance restart (§III.E), and the DDL
// Information Table for redo markers (§III.G).
package core

import (
	"sync"
	"unsafe"

	"dbimadg/internal/imcs"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// InvalRecord is one invalidation record (paper Fig. 6): the tuple mined from
// a change vector that modifies an IMCS-enabled object — object, block,
// changed row — tagged (by its position in a transaction's anchor) with the
// transaction that made the change. Tenant information lives on the anchor.
//
// CV, a step past the paper, is the change vector itself when it is an update
// or a delete: it says what changed (the after-image, ChangedCols), which the
// flush hands to the unit's column delta. The record it belongs to may have
// left the redo log (a TCP mirror releases what the merger dispatched): the
// pointer keeps the change vector. Nil means only "this row changed".
type InvalRecord struct {
	Obj  rowstore.ObjID
	Blk  rowstore.BlockNo
	Slot uint16
	CV   *redo.CV
}

// patch is what the record's change vector says changed.
func (r InvalRecord) patch() imcs.Patch {
	if r.CV == nil {
		return imcs.Patch{}
	}
	return imcs.Patch{Row: r.CV.Row, Cols: r.CV.ChangedCols, Deleted: r.CV.Kind == redo.CVDelete}
}

// Anchor is a hashtable node of the IM-ADG Journal: the per-transaction
// anchor for invalidation records. Each recovery worker owns a private area
// in the anchor, so concurrent workers mining records for the same
// transaction never synchronize (paper §III.C) — the bucket latch is taken
// only to find or create the anchor.
type Anchor struct {
	Txn    scn.TxnID
	Tenant rowstore.TenantID

	// began records that the transaction's "begin" control record was mined.
	// A commit whose anchor lacks it (or has no anchor at all) was partially
	// mined — e.g. mining started mid-transaction after an instance restart —
	// and triggers coarse invalidation when the commit is flagged (§III.E).
	// Written under the bucket latch; read only after the transaction's
	// commit is chopped (all its CVs applied), so no further synchronization
	// is needed.
	began bool

	// areas[w] is recovery worker w's private record area.
	areas [][]InvalRecord
}

// Began reports whether the begin control record was mined.
func (a *Anchor) Began() bool { return a.began }

// Records visits every buffered invalidation record.
func (a *Anchor) Records(visit func(InvalRecord)) {
	for _, area := range a.areas {
		for _, r := range area {
			visit(r)
		}
	}
}

// RecordCount returns the number of buffered records.
func (a *Anchor) RecordCount() int {
	n := 0
	for _, area := range a.areas {
		n += len(area)
	}
	return n
}

// Journal is the IM-ADG Journal (paper §III.C): an in-memory hash table from
// transaction identifier to its anchor of invalidation records. The table is
// sized by the apply parallelism to keep bucket contention low; hash chains
// within a bucket are protected by the bucket latch.
type Journal struct {
	workers int
	buckets []journalBucket
}

type journalBucket struct {
	mu sync.Mutex // the "bucket latch"
	m  map[scn.TxnID]*Anchor
}

// NewJournal builds a journal for the given number of recovery workers.
// buckets <= 0 sizes the table from the parallelism (paper: "sized based on
// the degree of parallelism employed by the ADG architecture").
func NewJournal(buckets, workers int) *Journal {
	if workers < 1 {
		workers = 1
	}
	if buckets <= 0 {
		buckets = 64 * workers
	}
	j := &Journal{workers: workers, buckets: make([]journalBucket, buckets)}
	for i := range j.buckets {
		j.buckets[i].m = make(map[scn.TxnID]*Anchor)
	}
	return j
}

func (j *Journal) bucket(txn scn.TxnID) *journalBucket {
	x := uint64(txn)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return &j.buckets[x%uint64(len(j.buckets))]
}

// EnsureAnchor finds or creates the anchor for txn; markBegan is set when the
// caller mined the transaction's begin control record.
func (j *Journal) EnsureAnchor(txn scn.TxnID, tenant rowstore.TenantID, markBegan bool) *Anchor {
	b := j.bucket(txn)
	b.mu.Lock()
	a, ok := b.m[txn]
	if !ok {
		a = &Anchor{Txn: txn, Tenant: tenant, areas: make([][]InvalRecord, j.workers)}
		b.m[txn] = a
	}
	if markBegan {
		a.began = true
	}
	b.mu.Unlock()
	return a
}

// Add buffers an invalidation record mined by the given recovery worker.
// After anchor lookup (bucket latch), the append touches only the worker's
// private area.
func (j *Journal) Add(worker int, txn scn.TxnID, tenant rowstore.TenantID, rec InvalRecord) {
	a := j.EnsureAnchor(txn, tenant, false)
	a.areas[worker] = append(a.areas[worker], rec)
}

// Get returns the anchor for txn, if present.
func (j *Journal) Get(txn scn.TxnID) (*Anchor, bool) {
	b := j.bucket(txn)
	b.mu.Lock()
	a, ok := b.m[txn]
	b.mu.Unlock()
	return a, ok
}

// Remove discards the anchor for txn (after its invalidations are flushed, or
// when the transaction aborts — aborted changes are never visible, so their
// invalidation records are dropped wholesale).
func (j *Journal) Remove(txn scn.TxnID) {
	b := j.bucket(txn)
	b.mu.Lock()
	delete(b.m, txn)
	b.mu.Unlock()
}

// Len returns the number of anchored transactions.
func (j *Journal) Len() int {
	n := 0
	for i := range j.buckets {
		j.buckets[i].mu.Lock()
		n += len(j.buckets[i].m)
		j.buckets[i].mu.Unlock()
	}
	return n
}

// MemBytes returns what the anchors and their records take.
func (j *Journal) MemBytes() int64 {
	var n int64
	for i := range j.buckets {
		j.buckets[i].mu.Lock()
		for _, a := range j.buckets[i].m {
			n += int64(unsafe.Sizeof(*a)) + int64(unsafe.Sizeof(a.areas[0]))*int64(len(a.areas)) +
				int64(unsafe.Sizeof(InvalRecord{}))*int64(a.RecordCount())
		}
		j.buckets[i].mu.Unlock()
	}
	return n
}
