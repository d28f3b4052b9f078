package core

import (
	"sync"
	"sync/atomic"
	"time"

	"dbimadg/internal/obs"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// StandbyPolicy answers whether a data object is enabled for population into
// the IMCS on this standby (resolved from replicated INMEMORY attributes and
// the service registry by the standby package).
type StandbyPolicy interface {
	Enabled(obj rowstore.ObjID) bool
}

// Miner is the DBIM-on-ADG Mining Component (paper §III.B). It piggybacks on
// the recovery workers: each worker, while applying a change vector, hands it
// to MineCV. Data CVs on IMCS-enabled objects yield invalidation records in
// the journal; control CVs (begin/commit/abort) maintain the journal anchors
// and the commit table; marker CVs feed the DDL information table.
type Miner struct {
	journal *Journal
	commits *CommitTable
	ddl     *DDLTable
	policy  StandbyPolicy

	mined   atomic.Int64 // invalidation records mined
	commitN atomic.Int64 // commit nodes created
	skip    atomic.Int64 // mutation-testing hook: journal records left to drop

	trace atomic.Pointer[obs.PipelineTrace]
}

// NewMiner assembles the mining component.
func NewMiner(journal *Journal, commits *CommitTable, ddl *DDLTable, policy StandbyPolicy) *Miner {
	return &Miner{journal: journal, commits: commits, ddl: ddl, policy: policy}
}

// SetTrace attaches an optional pipeline trace; mine and journal stage
// latencies are observed per change vector when set.
func (m *Miner) SetTrace(t *obs.PipelineTrace) { m.trace.Store(t) }

// MineCV sniffs one change vector applied by recovery worker w at record SCN
// recSCN (§III.B).
func (m *Miner) MineCV(w int, recSCN scn.SCN, cv *redo.CV) {
	tr := m.trace.Load()
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	m.mineCV(w, recSCN, cv)
	if tr != nil {
		tr.Observe(obs.StageMine, uint64(recSCN), time.Since(start))
	}
}

func (m *Miner) mineCV(w int, recSCN scn.SCN, cv *redo.CV) {
	switch cv.Kind {
	case redo.CVBegin:
		m.journal.EnsureAnchor(cv.Txn, cv.Tenant, true)
	case redo.CVInsert, redo.CVUpdate, redo.CVDelete:
		if m.policy.Enabled(cv.DBA.Obj()) {
			if m.skip.Load() > 0 && m.skip.Add(-1) >= 0 {
				// Deliberately mutated path: the invalidation record is never
				// journaled, leaving a stale IMCS row for the chaos oracle to
				// catch. Never taken in production (skip stays 0).
				return
			}
			tr := m.trace.Load()
			var start time.Time
			if tr != nil {
				start = time.Now()
			}
			rec := InvalRecord{Obj: cv.DBA.Obj(), Blk: cv.DBA.Block(), Slot: cv.Slot}
			if cv.Kind != redo.CVInsert {
				rec.CV = cv // an insert patches nothing the IMCU holds
			}
			m.journal.Add(w, cv.Txn, cv.Tenant, rec)
			if tr != nil {
				tr.Observe(obs.StageJournal, uint64(recSCN), time.Since(start))
			}
			m.mined.Add(1)
		}
	case redo.CVCommit:
		anchor, _ := m.journal.Get(cv.Txn)
		m.commits.Insert(&CommitNode{
			Txn: cv.Txn, CommitSCN: recSCN, Tenant: cv.Tenant,
			HasIMCS: cv.HasIMCS, Anchor: anchor,
		})
		m.commitN.Add(1)
	case redo.CVAbort:
		// Aborted changes are never visible, so the buffered records must be
		// discarded — but not here: a worker on another thread may still be
		// mining this transaction's data CVs and would re-create the anchor as
		// a permanent orphan. Queue an abort node instead; the flusher releases
		// the anchor once the chop watermark proves all of the transaction's
		// CVs have been applied.
		anchor, _ := m.journal.Get(cv.Txn)
		m.commits.Insert(&CommitNode{
			Txn: cv.Txn, CommitSCN: recSCN, Tenant: cv.Tenant,
			Aborted: true, Anchor: anchor,
		})
	case redo.CVMarker:
		if cv.Marker != nil {
			m.ddl.Add(recSCN, cv.Marker)
		}
	}
}

// SkipJournalRecords arms the mutation-testing hook: the next n invalidation
// records that would be journaled are silently dropped instead, simulating a
// lost-invalidation bug. The chaos harness self-test uses this to prove its
// equivalence oracle detects stale IMCS data; production code never arms it.
func (m *Miner) SkipJournalRecords(n int64) { m.skip.Store(n) }

// MinedRecords returns the number of invalidation records mined.
func (m *Miner) MinedRecords() int64 { return m.mined.Load() }

// MinedCommits returns the number of commit nodes created.
func (m *Miner) MinedCommits() int64 { return m.commitN.Load() }

// DDLTable buffers information mined from redo markers, analogous to the
// IM-ADG Commit Table but for DDL (paper §III.G): at QuerySCN advancement,
// IMCUs of objects whose definition changed are dropped.
type DDLTable struct {
	mu      sync.Mutex
	entries []ddlEntry
}

type ddlEntry struct {
	scn    scn.SCN
	marker *redo.Marker
}

// NewDDLTable returns an empty DDL information table.
func NewDDLTable() *DDLTable {
	return &DDLTable{}
}

// Add buffers a mined marker.
func (t *DDLTable) Add(s scn.SCN, m *redo.Marker) {
	t.mu.Lock()
	t.entries = append(t.entries, ddlEntry{scn: s, marker: m})
	t.mu.Unlock()
}

// Collect removes and returns, in mining order, the markers with
// SCN <= upTo; the coordinator applies them before publishing the new
// QuerySCN.
func (t *DDLTable) Collect(upTo scn.SCN) []*redo.Marker {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*redo.Marker
	kept := t.entries[:0]
	for _, e := range t.entries {
		if e.scn <= upTo {
			out = append(out, e.marker)
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	return out
}

// Len returns the number of buffered markers.
func (t *DDLTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}
