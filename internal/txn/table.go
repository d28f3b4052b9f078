// Package txn provides the transaction table shared by the primary and
// standby (as the Consistent Read visibility authority) and the primary-side
// transaction manager that executes DML, maintains row locks through version
// heads, and generates redo.
package txn

import (
	"sync"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// tableShards is the number of lock shards in a Table; power of two.
const tableShards = 64

// Table is a sharded transaction table mapping transaction ids to their
// lifecycle state and commitSCN. The primary updates it from the live
// transaction manager; the standby updates it by applying begin/commit/abort
// change vectors during redo apply. It implements rowstore.TxnView, and keeps
// beside it the registry of snapshots its readers hold (rowstore.SnapshotsOf).
type Table struct {
	shards [tableShards]tableShard
	snaps  rowstore.Snapshots
}

type tableShard struct {
	mu sync.RWMutex
	m  map[scn.TxnID]tableEntry
}

type tableEntry struct {
	status    rowstore.TxnStatus
	commitSCN scn.SCN
}

// NewTable returns an empty transaction table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].m = make(map[scn.TxnID]tableEntry)
	}
	return t
}

func (t *Table) shard(id scn.TxnID) *tableShard {
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	return &t.shards[x&(tableShards-1)]
}

// set records a lifecycle transition of id. Committed and aborted are final
// (rowstore.TxnView): a transition out of either is ignored. A standby replay
// that starts below what the replica holds re-applies the begin of
// transactions the table already holds as finished; reopening one would hide its rows
// from Consistent Read until its commit is replayed again, and contradict the
// commitSCN that readers have cached on its row versions.
func (t *Table) set(id scn.TxnID, e tableEntry) {
	s := t.shard(id)
	s.mu.Lock()
	if cur := s.m[id].status; cur != rowstore.TxnCommitted && cur != rowstore.TxnAborted {
		s.m[id] = e
	}
	s.mu.Unlock()
}

// Begin records the transaction as active.
func (t *Table) Begin(id scn.TxnID) { t.set(id, tableEntry{status: rowstore.TxnActive}) }

// Commit records the transaction committed at commitSCN.
func (t *Table) Commit(id scn.TxnID, commitSCN scn.SCN) {
	t.set(id, tableEntry{status: rowstore.TxnCommitted, commitSCN: commitSCN})
}

// Abort records the transaction rolled back.
func (t *Table) Abort(id scn.TxnID) { t.set(id, tableEntry{status: rowstore.TxnAborted}) }

// Lookup implements rowstore.TxnView.
func (t *Table) Lookup(id scn.TxnID) (rowstore.TxnStatus, scn.SCN) {
	s := t.shard(id)
	s.mu.RLock()
	e, ok := s.m[id]
	s.mu.RUnlock()
	if !ok {
		return rowstore.TxnUnknown, scn.Invalid
	}
	return e.status, e.commitSCN
}

// Snapshots returns the registry of the snapshots the table's readers hold.
func (t *Table) Snapshots() *rowstore.Snapshots { return &t.snaps }

// Forget drops entries for transactions committed at or before horizon,
// bounding table growth. Safe only once no reader can use a snapshot below
// horizon AND no version tagged with those transactions remains (i.e. after a
// vacuum at the same horizon)... it is therefore driven by the same
// maintenance loop as Database.Vacuum, with Forget running at the previous
// vacuum's horizon.
func (t *Table) Forget(horizon scn.SCN) int {
	dropped := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for id, e := range s.m {
			if e.status == rowstore.TxnCommitted && e.commitSCN != scn.Invalid && e.commitSCN < horizon {
				delete(s.m, id)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// AbortActive marks every active transaction rolled back and returns their
// ids. Failover uses it to terminate in-flight transactions: on the standby,
// a transaction still active at end-of-redo never shipped its commit, so its
// versions must become permanently invisible before the database opens
// read-write.
func (t *Table) AbortActive() []scn.TxnID {
	var aborted []scn.TxnID
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for id, e := range s.m {
			if e.status == rowstore.TxnActive {
				s.m[id] = tableEntry{status: rowstore.TxnAborted}
				aborted = append(aborted, id)
			}
		}
		s.mu.Unlock()
	}
	return aborted
}

// MaxID returns the highest transaction id the table has seen (0 when empty).
// A promoted standby seeds its allocator from it.
func (t *Table) MaxID() scn.TxnID {
	var max scn.TxnID
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for id := range s.m {
			if id > max {
				max = id
			}
		}
		s.mu.RUnlock()
	}
	return max
}

// Len returns the number of tracked transactions.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.RLock()
		n += len(t.shards[i].m)
		t.shards[i].mu.RUnlock()
	}
	return n
}
