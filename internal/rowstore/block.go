package rowstore

import (
	"errors"
	"sync"
	"sync/atomic"
	"unsafe"

	"dbimadg/internal/scn"
)

// ErrRowLocked is returned when a writer finds the row's newest version owned
// by another in-flight transaction. The paper's OLTP workload avoids hot-row
// conflicts; callers retry or abort.
var ErrRowLocked = errors.New("rowstore: row locked by another transaction")

// ErrBlockFull is returned when a block has no free slot for an insert.
var ErrBlockFull = errors.New("rowstore: block full")

// ErrUndeclaredChange is returned when an update changes a column its caller
// did not list among the changed ones. The list goes into the redo record, and
// a standby patches its column store with exactly the columns listed.
var ErrUndeclaredChange = errors.New("rowstore: update changed a column it did not declare")

// ErrRowDeleted is returned when a writer updates a row whose newest
// non-aborted version is a delete: there is no image to change.
var ErrRowDeleted = errors.New("rowstore: row deleted")

// version is one entry in a row's version chain. Chains are ordered newest
// first; the chain is the undo needed for Consistent Read.
//
// commit is the writer's commitSCN once some reader has resolved it (zero
// until then) — the analogue of Oracle's delayed block cleanout: the first
// reader that finds the writer committed leaves the answer on the version, and
// every later one skips the transaction table. Readers store it under the
// block's shared latch, hence the atomic word; TxnView's rule that a committed
// status never changes makes every store of it the same value.
//
// img is the row's packed image (the zero Image for a delete): the version's
// one other allocation, and one the collector does not scan. The struct is 48
// bytes, a size class of its own.
type version struct {
	txn     scn.TxnID
	commit  atomic.Uint64
	next    *version
	deleted bool
	img     Image
}

// Block is a multi-versioned data block holding up to capacity rows. All
// mutation and read paths are guarded by a per-block RWMutex, standing in for
// the buffer-cache block pins of the paper's substrate.
type Block struct {
	dba      DBA
	capacity int

	mu      sync.RWMutex
	rows    []*version // index = slot; length = high-water mark of used slots
	applied scn.SCN    // the newest redo record applied to the block (ApplyVersionAt)
}

// NewBlock returns an empty block with the given address and row capacity.
func NewBlock(dba DBA, capacity int) *Block {
	return &Block{dba: dba, capacity: capacity}
}

// DBA returns the block's address.
func (b *Block) DBA() DBA { return b.dba }

// Capacity returns the maximum number of row slots.
func (b *Block) Capacity() int { return b.capacity }

// RowCount returns the current high-water mark of used slots (including rows
// from uncommitted or aborted transactions).
func (b *Block) RowCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.rows)
}

// statusOf resolves a version writer's status, special-casing the frozen
// transaction id (see scn.FrozenTxn): frozen versions are committed at SCN 1.
func statusOf(view TxnView, id scn.TxnID) (TxnStatus, scn.SCN) {
	if id == scn.FrozenTxn {
		return TxnCommitted, 1
	}
	return view.Lookup(id)
}

// visible reports whether version v is visible at snapshot snap to reader
// transaction self (scn.InvalidTxn for pure readers).
func visible(v *version, snap scn.SCN, view TxnView, self scn.TxnID) bool {
	if self != scn.InvalidTxn && v.txn == self {
		return true // read-your-writes within a transaction
	}
	if c := scn.SCN(v.commit.Load()); c != scn.Invalid {
		return c <= snap
	}
	status, commitSCN := statusOf(view, v.txn)
	if status != TxnCommitted || commitSCN == scn.Invalid {
		return false
	}
	v.commit.Store(uint64(commitSCN))
	return commitSCN <= snap
}

// ReadRow performs a Consistent Read of the row at slot as of snapshot snap.
// It walks the version chain to the newest version visible at snap and returns
// that version's image. ok is false when the slot has no visible, non-deleted
// version at snap.
func (b *Block) ReadRow(slot uint16, snap scn.SCN, view TxnView, self scn.TxnID) (img Image, ok bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.readRowLocked(slot, snap, view, self)
}

// ReadRows is ReadRow under one block latch for the slots listed and then for
// every slot from `from` up to the high-water mark, which only the latch makes
// known (pass Capacity() for none). It keeps the rows visible at snap: rows[i]
// and at[i] receive the i-th of them and its slot, and their number is
// returned. The images are mutually consistent as of snap and the caller pays
// one latch per block, not one per row. rows and at must have room for
// len(slots)+Capacity()-from entries; at may be slots itself.
func (b *Block) ReadRows(slots []uint16, from uint16, snap scn.SCN, view TxnView, self scn.TxnID, rows []Image, at []uint16) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	for _, slot := range slots {
		if row, ok := b.readRowLocked(slot, snap, view, self); ok {
			rows[n], at[n] = row, slot
			n++
		}
	}
	for s := int(from); s < len(b.rows); s++ {
		if row, ok := b.readRowLocked(uint16(s), snap, view, self); ok {
			rows[n], at[n] = row, uint16(s)
			n++
		}
	}
	return n
}

// readRowLocked walks slot's version chain to the newest version visible at
// snap; caller holds b.mu.
func (b *Block) readRowLocked(slot uint16, snap scn.SCN, view TxnView, self scn.TxnID) (Image, bool) {
	if int(slot) >= len(b.rows) {
		return "", false
	}
	for v := b.rows[slot]; v != nil; v = v.next {
		if !visible(v, snap, view, self) {
			continue
		}
		return v.img, !v.deleted
	}
	return "", false
}

// writeLocked pushes a new version at the head of slot's chain. Caller holds
// b.mu. It extends the slot array as needed (slots are allocated densely by
// the segment's insert path).
func (b *Block) writeLocked(slot uint16, txn scn.TxnID, img Image, deleted bool) {
	for int(slot) >= len(b.rows) {
		b.rows = append(b.rows, nil)
	}
	b.rows[slot] = &version{txn: txn, deleted: deleted, img: img, next: b.rows[slot]}
}

// Insert places a fresh row at slot on behalf of txn. It is used both by the
// primary's DML path and by standby redo apply (which replays the primary's
// slot assignment, keeping the replica physically identical).
func (b *Block) Insert(slot uint16, txn scn.TxnID, img Image) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if int(slot) >= b.capacity {
		return ErrBlockFull
	}
	b.writeLocked(slot, txn, img, false)
	return nil
}

// Update overwrites columns of the row at slot on behalf of txn, pushing a new
// version whose image is the newest existing image with mutate applied, and
// returns that after-image for redo generation. Writers conflict on the newest
// version: if it belongs to another in-flight transaction, ErrRowLocked is
// returned; a deleted row has no image to change and returns ErrRowDeleted
// before mutate runs.
//
// mutate receives the current image unpacked into scratch (whose arrays are
// reused and whose strings are views of that image) and modifies it in place.
// declared lists the columns of schema it may change; a change to any other is
// ErrUndeclaredChange, and no version is installed. An empty list declares
// nothing and is not checked: the redo record then says "changed, unknown where".
func (b *Block) Update(slot uint16, txn scn.TxnID, view TxnView, scratch *Row, schema *Schema, declared []uint16, mutate func(*Row)) (Image, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if int(slot) >= len(b.rows) || b.rows[slot] == nil {
		return "", errors.New("rowstore: update of empty slot")
	}
	head := b.rows[slot]
	if head.txn != txn {
		if status, _ := statusOf(view, head.txn); status == TxnActive || status == TxnUnknown {
			return "", ErrRowLocked
		}
	}
	base, ok := b.latestLocked(slot, view)
	if !ok {
		return "", ErrRowDeleted
	}
	scratch.Nums, scratch.Strs = scratch.Nums[:0], scratch.Strs[:0]
	base.AppendTo(scratch)
	mutate(scratch)
	img := Pack(*scratch)
	clear(scratch.Strs) // views of the image replaced
	if len(declared) > 0 && !changedWithin(base, img, schema, declared) {
		return "", ErrUndeclaredChange
	}
	b.writeLocked(slot, txn, img, false)
	return img, nil
}

// changedWithin reports whether img differs from base only in columns of schema
// that declared lists. The number region is compared at once and, where that
// says different, word by word; the lengths and bytes of the strings likewise,
// and walked only on a difference.
func changedWithin(base, img Image, schema *Schema, declared []uint16) bool {
	listed := func(kind ColKind, slot int) bool {
		for _, c := range declared {
			if int(c) < len(schema.cols) && schema.cols[c].Kind == kind && schema.cols[c].slot == slot {
				return true
			}
		}
		return false
	}
	n := base.NumCount()
	if n != img.NumCount() || base.StrCount() != img.StrCount() {
		return false
	}
	if base == "" {
		return true // a row of no values
	}
	strs := imageHeader + 8*n // where the lengths start
	if base[imageHeader:strs] != img[imageHeader:strs] {
		for s := 0; s < n; s++ {
			if base.Num(s) != img.Num(s) && !listed(KindNumber, s) {
				return false
			}
		}
	}
	if base[strs:] != img[strs:] {
		was, is := base.StrsFrom(0), img.StrsFrom(0)
		for s := 0; s < base.StrCount(); s++ {
			if was.Next() == is.Next() {
				continue
			}
			if !listed(KindVarchar, s) {
				return false
			}
			if was.rest() == is.rest() {
				break // the one string that changed
			}
		}
	}
	return true
}

// latestLocked returns the newest non-aborted image for slot, ok false when
// that version is a delete or there is none; caller holds b.mu. Aborted
// versions are skipped, which is how rollback is realised without physically
// unlinking versions.
func (b *Block) latestLocked(slot uint16, view TxnView) (Image, bool) {
	for v := b.rows[slot]; v != nil; v = v.next {
		if status, _ := statusOf(view, v.txn); status != TxnAborted {
			return v.img, !v.deleted
		}
	}
	return "", false
}

// LatestImage returns the newest non-aborted image at slot regardless of
// snapshot (the "current" row as redo apply sees it); ok is false for empty
// or deleted slots.
func (b *Block) LatestImage(slot uint16, view TxnView) (Image, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if int(slot) >= len(b.rows) {
		return "", false
	}
	return b.latestLocked(slot, view)
}

// Delete marks the row at slot deleted on behalf of txn; like Update it
// conflicts on the newest version and refuses a row already deleted.
func (b *Block) Delete(slot uint16, txn scn.TxnID, view TxnView) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if int(slot) >= len(b.rows) || b.rows[slot] == nil {
		return errors.New("rowstore: delete of empty slot")
	}
	head := b.rows[slot]
	if head.txn != txn {
		if status, _ := statusOf(view, head.txn); status == TxnActive || status == TxnUnknown {
			return ErrRowLocked
		}
	}
	if _, ok := b.latestLocked(slot, view); !ok {
		return ErrRowDeleted
	}
	b.writeLocked(slot, txn, "", true)
	return nil
}

// ApplyVersionAt appends a version during standby redo apply, from the redo
// record at SCN rec. Apply is already serialized per DBA by the recovery
// worker hashing scheme, so no conflict check is needed; the version order in
// the chain is the redo (SCN) order. A record older than the newest one the
// block has applied is a replayed duplicate (a restart from a checkpoint below
// the watermark re-applies redo the block holds) and changes nothing: the
// block-SCN rule of media recovery. A record's CVs share its SCN, so an equal
// SCN applies.
func (b *Block) ApplyVersionAt(rec scn.SCN, slot uint16, txn scn.TxnID, img Image, deleted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if rec < b.applied {
		return
	}
	b.applied = rec
	b.writeLocked(slot, txn, img, deleted)
}

// Vacuum prunes version chains: for each slot it keeps every version needed by
// readers at snapshots >= horizon and drops older ones, and unlinks aborted
// versions. It returns the number of versions freed. horizon must be <= the
// oldest snapshot any active or future reader can use (see Snapshots).
func (b *Block) Vacuum(horizon scn.SCN, view TxnView) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	freed := 0
	for slot := range b.rows {
		freed += vacuumChain(&b.rows[slot], horizon, view)
	}
	return freed
}

// vacuumChain prunes the chain at link; caller holds the block's latch. The
// newest version committed at or before horizon answers every snapshot from
// horizon on, and the versions behind it answer none. It keeps answering once
// its writer has left the transaction table: it is frozen.
func vacuumChain(link **version, horizon scn.SCN, view TxnView) int {
	freed := 0
	for v := *link; v != nil; v = *link {
		status, commitSCN := TxnStatus(TxnCommitted), scn.SCN(v.commit.Load())
		if commitSCN == scn.Invalid {
			status, commitSCN = statusOf(view, v.txn)
		}
		switch {
		case status == TxnAborted:
			*link = v.next
			freed++
			continue
		case status == TxnCommitted && commitSCN <= horizon:
			for old := v.next; old != nil; old = old.next {
				freed++
			}
			v.next = nil
			v.txn = scn.FrozenTxn
			return freed
		}
		link = &v.next
	}
	return freed
}

// Footprint is what version chains hold: the versions and their images' bytes,
// split into the chain heads (live) and the versions behind them (superseded).
type Footprint struct {
	Versions, Superseded       int64
	LiveBytes, SupersededBytes int64
}

// VersionBytes is what the version structs take, besides their images.
func (f Footprint) VersionBytes() int64 { return f.Versions * int64(unsafe.Sizeof(version{})) }

// addTo adds what the block's chains hold to f, walking them under the read
// latch.
func (b *Block) addTo(f *Footprint) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, head := range b.rows {
		for v := head; v != nil; v = v.next {
			f.Versions++
			if v == head {
				f.LiveBytes += int64(len(v.img))
			} else {
				f.Superseded++
				f.SupersededBytes += int64(len(v.img))
			}
		}
	}
}

// ChainLen returns the version-chain length at slot; used by tests and the
// vacuum heuristics.
func (b *Block) ChainLen(slot uint16) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if int(slot) >= len(b.rows) {
		return 0
	}
	n := 0
	for v := b.rows[slot]; v != nil; v = v.next {
		n++
	}
	return n
}
