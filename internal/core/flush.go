package core

import (
	"sync/atomic"
	"time"

	"dbimadg/internal/imcs"
	"dbimadg/internal/obs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// Group is an invalidation group (paper §III.D): the invalidation records of
// one transaction that target one data block, routed as a unit to the SMU (or
// to the RAC instance, §III.F) hosting the covering IMCU.
//
// SCN is the transaction's commitSCN and Patches, when not nil, says slot by
// slot what it changed (imcs.Unit.Invalidate); a group without them only marks
// its rows invalid.
type Group struct {
	Obj     rowstore.ObjID
	Blk     rowstore.BlockNo
	Slots   []uint16
	SCN     scn.SCN
	Patches []imcs.Patch
}

// Sink is the flusher's one downstream: whatever keeps the column stores of
// the standby's non-apply instances current (internal/fleet). It is nil on a
// standby with no readers. Groups and CoarseInvalidate may be called from any
// flushing goroutine (the coordinator or a cooperative helper) and must not
// block: a slow consumer buffers, it never stalls the flush hot path. Every
// call for one QuerySCN advancement completes before that advancement
// publishes, so a FIFO consumer that applies them before acting on the
// matching publication stays transactionally consistent.
type Sink interface {
	// Groups delivers the invalidation groups of one transaction, all homes;
	// the sink routes them by placement (§III.F: batched and pipelined, the
	// call returns before the receivers have applied anything).
	Groups(groups []Group)
	// CoarseInvalidate mirrors a coarse tenant invalidation (restart
	// fallback, §III.E).
	CoarseInvalidate(tenant rowstore.TenantID)
	// Barrier blocks until every receiver that shares the master's
	// consistency point has applied and acknowledged what was delivered. The
	// master calls it after draining a worklink and before publishing the new
	// QuerySCN, so no such store lags the published consistency point.
	Barrier()
}

// Flusher is the Invalidation Flush Component (paper §III.D): it walks a
// worklink's commit nodes, gathers each transaction's invalidation records
// through the one-step anchor reference, chunks them into invalidation groups
// by IMCU, and flushes them to the SMUs — locally or across RAC instances via
// the home-location map.
type Flusher struct {
	journal *Journal
	local   *imcs.Store
	home    imcs.HomeMap
	localID int // this instance's index in the home map
	chunk   rowstore.BlockNo

	flushedRecords atomic.Int64
	coarseCount    atomic.Int64

	trace atomic.Pointer[obs.PipelineTrace]
	sink  atomic.Pointer[Sink]
}

// SetTrace attaches an optional pipeline trace; flush-stage latency is
// observed per commit node when set.
func (f *Flusher) SetTrace(t *obs.PipelineTrace) { f.trace.Store(t) }

// SetSink attaches (or, with nil, detaches) the downstream; see Sink.
func (f *Flusher) SetSink(sink Sink) {
	if sink == nil {
		f.sink.Store(nil)
		return
	}
	f.sink.Store(&sink)
}

// Barrier waits for the attached sink's acknowledgement point (no-op without
// a sink).
func (f *Flusher) Barrier() {
	if sink := f.sink.Load(); sink != nil {
		(*sink).Barrier()
	}
}

// NewFlusher assembles the flush component. chunk is the population engine's
// BlocksPerIMCU, which determines IMCU boundaries and hence group homes.
func NewFlusher(journal *Journal, local *imcs.Store, home imcs.HomeMap, localID int, chunk int, sink Sink) *Flusher {
	if chunk <= 0 {
		chunk = 64
	}
	f := &Flusher{
		journal: journal, local: local, home: home, localID: localID,
		chunk: rowstore.BlockNo(chunk),
	}
	f.SetSink(sink)
	return f
}

// FlushedRecords returns the number of invalidation records flushed to SMUs.
func (f *Flusher) FlushedRecords() int64 { return f.flushedRecords.Load() }

// CoarseInvalidations returns how many times the coarse fallback fired.
func (f *Flusher) CoarseInvalidations() int64 { return f.coarseCount.Load() }

// FlushNode flushes one commit node's invalidations and releases its journal
// anchor. By the time a node is chopped into a worklink, every CV of its
// transaction has been applied (the chop SCN is an apply watermark), so the
// anchor is complete and no worker is still appending to it.
func (f *Flusher) FlushNode(n *CommitNode) {
	tr := f.trace.Load()
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	f.flushNode(n)
	if tr != nil {
		tr.Observe(obs.StageFlush, uint64(n.CommitSCN), time.Since(start))
	}
}

func (f *Flusher) flushNode(n *CommitNode) {
	anchor := n.Anchor
	if anchor == nil {
		// The commit CV may have been applied (and mined) before some of the
		// transaction's data CVs on other workers; the anchor might have been
		// created after the commit node. Re-resolve.
		anchor, _ = f.journal.Get(n.Txn)
	}
	if n.Aborted {
		// Aborted changes are never visible at any snapshot, so nothing needs
		// invalidating; the deferred journal release is the whole point (the
		// chop watermark guarantees no worker can re-create the anchor now).
		if anchor != nil {
			f.journal.Remove(n.Txn)
		}
		return
	}
	if n.HasIMCS && (anchor == nil || !anchor.Began()) {
		// Specialized redo generation says invalidation records are expected,
		// but the journal has none or a partial set (missing "transaction
		// begin") — mining started mid-transaction, i.e. the instance
		// restarted. Fall back to coarse invalidation of the tenant (§III.E).
		f.coarseCount.Add(1)
		f.local.InvalidateTenant(n.Tenant)
		if sink := f.sink.Load(); sink != nil {
			(*sink).CoarseInvalidate(n.Tenant)
		}
		if anchor != nil {
			f.journal.Remove(n.Txn)
		}
		return
	}
	if anchor == nil {
		return // read-only w.r.t. the IMCS: nothing to flush
	}
	f.flushAnchor(anchor, n.CommitSCN)
	f.journal.Remove(n.Txn)
}

// flushAnchor groups the records of a transaction committed at SCN at by block
// and applies them, each with what its change vector says changed. A record
// looks for its group among the few made so far.
func (f *Flusher) flushAnchor(a *Anchor, at scn.SCN) {
	sink := f.sink.Load()
	single := sink == nil && a.RecordCount() == 1
	var groups []Group
	for _, area := range a.areas {
		for _, r := range area {
			if single {
				// The usual transaction, one row changed and nobody to keep
				// the group: its lists stay on the stack.
				f.flush(Group{Obj: r.Obj, Blk: r.Blk, SCN: at, Slots: []uint16{r.Slot}, Patches: []imcs.Patch{r.patch()}})
				return
			}
			i := len(groups) - 1
			for ; i >= 0 && (groups[i].Obj != r.Obj || groups[i].Blk != r.Blk); i-- {
			}
			if i < 0 {
				i = len(groups)
				groups = append(groups, Group{Obj: r.Obj, Blk: r.Blk, SCN: at})
			}
			g := &groups[i]
			g.Slots = append(g.Slots, r.Slot)
			if r.CV != nil || g.Patches != nil {
				// Patches run parallel to Slots from the first record that has
				// something to say; a bulk load's groups never get any.
				for len(g.Patches) < len(g.Slots)-1 {
					g.Patches = append(g.Patches, imcs.Patch{})
				}
				g.Patches = append(g.Patches, r.patch())
			}
		}
	}
	for _, g := range groups {
		f.flush(g)
	}
	if len(groups) > 0 && sink != nil {
		(*sink).Groups(groups) // every group regardless of home
	}
}

// flush applies a group to the local store if it is homed here.
func (f *Flusher) flush(g Group) {
	f.flushedRecords.Add(int64(len(g.Slots)))
	if f.home.HomeOf(g.Obj, g.Blk-g.Blk%f.chunk) == f.localID {
		f.local.Invalidate(g.Obj, g.Blk, g.Slots, g.SCN, g.Patches)
	}
}

// ApplyGroups applies invalidation groups received from the master's flush
// (the receiving side of Sink.Groups, run by a reader's local recovery
// coordinator).
func ApplyGroups(store *imcs.Store, groups []Group) {
	for _, g := range groups {
		store.Invalidate(g.Obj, g.Blk, g.Slots, g.SCN, g.Patches)
	}
}

// DrainWorklink cooperatively drains w: the caller (coordinator or a recovery
// worker between redo batches) claims batches of batchSize nodes and flushes
// them until the worklink is exhausted (§III.D.2).
func (f *Flusher) DrainWorklink(w *Worklink, batchSize int) {
	for {
		batch := w.NextBatch(batchSize)
		if batch == nil {
			return
		}
		for _, n := range batch {
			f.FlushNode(n)
		}
		w.MarkDone(len(batch))
	}
}
