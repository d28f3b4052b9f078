package core

import (
	"sync"
	"sync/atomic"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// CommitNode is an IM-ADG Commit Table node (paper §III.D.1): a committed
// transaction, its commitSCN, the specialized-redo flag from its commit
// record, and a direct reference to its journal anchor for one-step access
// during flush. Aborted transactions are queued as nodes too (Aborted set,
// CommitSCN = the abort record's SCN): their journal anchors can only be
// released once the chop watermark guarantees no worker is still mining the
// transaction's data CVs — removing the anchor at abort-mining time instead
// races with those workers, which re-create it as an orphan that never
// drains.
type CommitNode struct {
	Txn       scn.TxnID
	CommitSCN scn.SCN
	Tenant    rowstore.TenantID
	HasIMCS   bool
	Aborted   bool
	Anchor    *Anchor // nil when no anchor existed at commit mining time
	next      *CommitNode
}

// CommitTable is the IM-ADG Commit Table: commitSCN-sorted linked lists of
// committed transactions. It is partitioned into multiple sorted lists to
// relieve the single-insertion-point bottleneck (§III.D.1: "the IM-ADG Commit
// Table can be partitioned to create multiple sorted linked lists"); a chop
// produces one worklink covering all partitions.
type CommitTable struct {
	parts []ctPart
}

type ctPart struct {
	mu   sync.Mutex
	head *CommitNode // ascending CommitSCN
	tail *CommitNode
	n    int
}

// NewCommitTable builds a commit table with the given number of partitions
// (minimum 1).
func NewCommitTable(partitions int) *CommitTable {
	if partitions < 1 {
		partitions = 1
	}
	return &CommitTable{parts: make([]ctPart, partitions)}
}

// Partitions returns the partition count.
func (t *CommitTable) Partitions() int { return len(t.parts) }

func (t *CommitTable) part(txn scn.TxnID) *ctPart {
	x := uint64(txn)
	x ^= x >> 33
	x *= 0x9e3779b97f4a7c15
	return &t.parts[x%uint64(len(t.parts))]
}

// Insert adds a node, keeping its partition sorted by commitSCN. Commits are
// mined in roughly increasing SCN order per worker, so insertion scans from
// the tail.
func (t *CommitTable) Insert(n *CommitNode) {
	p := t.part(n.Txn)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n++
	if p.tail == nil {
		p.head, p.tail = n, n
		return
	}
	if n.CommitSCN >= p.tail.CommitSCN {
		p.tail.next = n
		p.tail = n
		return
	}
	// Rare out-of-order arrival: walk from the head (lists are short between
	// chops, so this stays cheap).
	if n.CommitSCN < p.head.CommitSCN {
		n.next = p.head
		p.head = n
		return
	}
	cur := p.head
	for cur.next != nil && cur.next.CommitSCN <= n.CommitSCN {
		cur = cur.next
	}
	n.next = cur.next
	cur.next = n
	if n.next == nil {
		p.tail = n
	}
}

// Len returns the number of pending nodes.
func (t *CommitTable) Len() int {
	n := 0
	for i := range t.parts {
		t.parts[i].mu.Lock()
		n += t.parts[i].n
		t.parts[i].mu.Unlock()
	}
	return n
}

// Chop severs, from every partition, the prefix of nodes with
// commitSCN <= upTo and returns them as a worklink (paper §III.D.1: the
// recovery coordinator "chops off the Commit Table and creates a Worklink").
// The returned worklink may be empty.
func (t *CommitTable) Chop(upTo scn.SCN) *Worklink {
	w := &Worklink{drained: make(chan struct{})}
	for i := range t.parts {
		p := &t.parts[i]
		p.mu.Lock()
		for p.head != nil && p.head.CommitSCN <= upTo {
			n := p.head
			p.head = n.next
			if p.head == nil {
				p.tail = nil
			}
			n.next = nil
			p.n--
			w.nodes = append(w.nodes, n)
		}
		p.mu.Unlock()
	}
	if len(w.nodes) == 0 {
		close(w.drained)
	}
	return w
}

// Worklink is a chopped batch of commit nodes whose invalidations must be
// flushed before a new QuerySCN publishes. The recovery coordinator and the
// recovery workers drain it cooperatively: each claims batches through
// NextBatch until it is empty (§III.D.2).
type Worklink struct {
	nodes   []*CommitNode
	next    atomic.Int64
	done    atomic.Int64
	drained chan struct{} // Chop's: closed by the MarkDone that accounts for the last node
}

// Len returns the total number of nodes.
func (w *Worklink) Len() int { return len(w.nodes) }

// NextBatch claims up to n unprocessed nodes; it returns nil when the
// worklink is exhausted.
func (w *Worklink) NextBatch(n int) []*CommitNode {
	if n < 1 {
		n = 1
	}
	for {
		cur := w.next.Load()
		if cur >= int64(len(w.nodes)) {
			return nil
		}
		end := cur + int64(n)
		if end > int64(len(w.nodes)) {
			end = int64(len(w.nodes))
		}
		if w.next.CompareAndSwap(cur, end) {
			return w.nodes[cur:end]
		}
	}
}

// MarkDone records that n claimed nodes have been flushed. Batches are
// disjoint, so exactly one call brings the count to the total.
func (w *Worklink) MarkDone(n int) {
	if n > 0 && w.done.Add(int64(n)) == int64(len(w.nodes)) && w.drained != nil {
		close(w.drained)
	}
}

// Drained reports whether every node has been claimed and flushed.
func (w *Worklink) Drained() bool {
	return w.done.Load() >= int64(len(w.nodes))
}

// Done is closed once the worklink is drained: what a flusher that ran out of
// batches waits on for the helpers still flushing theirs.
func (w *Worklink) Done() <-chan struct{} { return w.drained }
