package txn

import (
	"errors"
	"fmt"
	"sync"

	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// RedoEmitter appends redo records (a set of change vectors sharing one SCN)
// to the generating instance's redo thread. Implementations serialize SCN
// allocation with the stream append so each thread's log stays SCN-ordered
// (the role of Oracle's redo allocation latch).
type RedoEmitter interface {
	// Emit appends one record and returns its SCN.
	Emit(cvs []redo.CV) scn.SCN
	// EmitCommit appends a commit record; commitHook runs with the commit
	// gate held, after the commitSCN is allocated and before any new snapshot
	// can be acquired. The transaction manager updates the transaction table
	// inside the hook, which closes the window in which a reader could take a
	// snapshot >= commitSCN yet observe the transaction as still active
	// (a torn read of the transaction's changes).
	EmitCommit(cvs []redo.CV, commitHook func(scn.SCN)) scn.SCN
	// Snapshot returns an SCN usable as a Consistent Read snapshot: every
	// transaction with commitSCN <= the returned value is fully visible in
	// the transaction table.
	Snapshot() scn.SCN
}

// DBIMHook receives primary-side Database In-Memory maintenance callbacks from
// the transaction manager (the role of the paper's "DBIM Transaction Manager",
// §II.B). Implementations mark column-store data invalid when transactions
// commit. A nil hook disables primary-side DBIM maintenance.
type DBIMHook interface {
	// OnCommit delivers, at commit time, every (DBA, slot) the transaction
	// modified, grouped by data object, so the column store can invalidate.
	OnCommit(tenant rowstore.TenantID, changes []RowChange, commitSCN scn.SCN)
}

// PopulationPolicy answers whether a data object is enabled for population
// into an In-Memory Column Store. EnabledStandby drives the specialized redo
// generation flag on commit records (§III.E); EnabledPrimary gates the
// primary-side DBIM maintenance callbacks.
type PopulationPolicy interface {
	EnabledPrimary(obj rowstore.ObjID) bool
	EnabledStandby(obj rowstore.ObjID) bool
}

// RowChange records one row a transaction modified, for DBIM invalidation.
type RowChange struct {
	Obj  rowstore.ObjID
	DBA  rowstore.DBA
	Slot uint16
}

// ErrTxnDone is returned when using a transaction after Commit or Abort.
var ErrTxnDone = errors.New("txn: transaction already finished")

// Manager is the primary-side transaction engine for one database instance:
// it allocates transaction ids, executes DML against the row store, maintains
// the transaction table and generates redo.
type Manager struct {
	clock   *scn.Clock
	ids     *scn.TxnIDAllocator
	table   *Table
	emit    RedoEmitter
	hook    DBIMHook
	policy  PopulationPolicy
	resolve func(rowstore.ObjID) (*rowstore.Segment, bool)
}

// NewManager assembles a transaction manager. hook and policy may be nil (no
// primary-side DBIM, no IMCS commit flags).
func NewManager(clock *scn.Clock, ids *scn.TxnIDAllocator, table *Table, emit RedoEmitter, hook DBIMHook, policy PopulationPolicy) *Manager {
	return &Manager{clock: clock, ids: ids, table: table, emit: emit, hook: hook, policy: policy}
}

// Table returns the transaction table (the CR visibility authority).
func (m *Manager) Table() *Table { return m.table }

// Clock returns the SCN clock.
func (m *Manager) Clock() *scn.Clock { return m.clock }

// Snapshot acquires a Consistent Read snapshot SCN on the primary. It is
// serialized with commit publication, so every transaction with
// commitSCN <= the returned SCN is visible.
func (m *Manager) Snapshot() scn.SCN { return m.emit.Snapshot() }

// Txn is one read-write transaction. A Txn is not safe for concurrent use by
// multiple goroutines (like a session).
type Txn struct {
	m     *Manager
	id    scn.TxnID
	began bool // begin CV emitted (with the first DML record)
	done  bool

	mu       sync.Mutex
	scratch  rowstore.Row // an update's image unpacked for its mutate callback
	changes  []RowChange
	touchIM  bool // touched an object enabled for standby IMCS population
	tenant   rowstore.TenantID
	anyWrite bool
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	id := m.ids.Next()
	m.table.Begin(id)
	return &Txn{m: m, id: id}
}

// ID returns the transaction identifier.
func (tx *Txn) ID() scn.TxnID { return tx.id }

// controlCVs prepends the begin control CV on the transaction's first redo
// record, mirroring Oracle's implicit transaction start in its first change.
func (tx *Txn) controlCVs(tenant rowstore.TenantID) []redo.CV {
	if tx.began {
		return nil
	}
	tx.began = true
	tx.tenant = tenant
	return []redo.CV{{Kind: redo.CVBegin, Txn: tx.id, Tenant: tenant}}
}

func (tx *Txn) noteChange(tenant rowstore.TenantID, obj rowstore.ObjID, dba rowstore.DBA, slot uint16) {
	tx.changes = append(tx.changes, RowChange{Obj: obj, DBA: dba, Slot: slot})
	tx.anyWrite = true
	if !tx.touchIM && tx.m.policy != nil && tx.m.policy.EnabledStandby(obj) {
		tx.touchIM = true
	}
	_ = tenant
}

// Insert adds a row to tbl, routing it to the right partition, maintaining the
// identity index, and emitting begin+insert redo. The row is packed; the caller
// keeps its Row.
func (tx *Txn) Insert(tbl *rowstore.Table, row rowstore.Row) (rowstore.RowID, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return rowstore.RowID{}, ErrTxnDone
	}
	schema := tbl.Schema()
	part, err := tx.route(tbl, schema, row)
	if err != nil {
		return rowstore.RowID{}, err
	}
	seg := part.Seg
	rid := seg.AllocRowSlot()
	blk := seg.Block(rid.DBA.Block())
	img := rowstore.Pack(row)
	if err := blk.Insert(rid.Slot, tx.id, img); err != nil {
		return rowstore.RowID{}, err
	}
	if idx := tbl.Index(); idx != nil {
		idx.Put(row.Num(schema, tbl.IdentityCol), rid)
	}
	cvs := append(tx.controlCVs(tbl.Tenant), redo.CV{
		Kind: redo.CVInsert, Txn: tx.id, Tenant: tbl.Tenant,
		DBA: rid.DBA, Slot: rid.Slot, Row: img,
	})
	tx.m.emit.Emit(cvs)
	tx.noteChange(tbl.Tenant, seg.Obj(), rid.DBA, rid.Slot)
	return rid, nil
}

func (tx *Txn) route(tbl *rowstore.Table, schema *rowstore.Schema, row rowstore.Row) (*rowstore.Partition, error) {
	if tbl.PartitionCol >= 0 {
		return tbl.PartitionFor(row.Num(schema, tbl.PartitionCol))
	}
	return tbl.PartitionByName("")
}

// UpdateByID updates the row with the given identity key. mutate modifies a
// copy of the current image in place; changedCols lists the schema column
// indexes it modifies. The list goes into the redo record as given, and the
// standby patches its column store with those columns and no other, so a change
// outside a non-empty list fails with rowstore.ErrUndeclaredChange and writes
// nothing; an empty list says "unknown" and the standby re-reads the row.
func (tx *Txn) UpdateByID(tbl *rowstore.Table, id int64, changedCols []uint16, mutate func(*rowstore.Row)) error {
	idx := tbl.Index()
	if idx == nil {
		return fmt.Errorf("txn: table %q has no identity index", tbl.Name)
	}
	rid, ok := idx.Get(id)
	if !ok {
		return fmt.Errorf("txn: no row with identity %d in %q", id, tbl.Name)
	}
	return tx.UpdateAt(tbl, rid, changedCols, mutate)
}

// UpdateAt updates the row at rid.
func (tx *Txn) UpdateAt(tbl *rowstore.Table, rid rowstore.RowID, changedCols []uint16, mutate func(*rowstore.Row)) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return ErrTxnDone
	}
	seg, ok := tx.segFor(rid)
	if !ok {
		return fmt.Errorf("txn: no segment for %v", rid)
	}
	blk := seg.Block(rid.DBA.Block())
	if blk == nil {
		return fmt.Errorf("txn: no block %v", rid.DBA)
	}
	after, err := blk.Update(rid.Slot, tx.id, tx.m.table, &tx.scratch, tbl.Schema(), changedCols, mutate)
	if err != nil {
		return err
	}
	cvs := append(tx.controlCVs(tbl.Tenant), redo.CV{
		Kind: redo.CVUpdate, Txn: tx.id, Tenant: tbl.Tenant,
		DBA: rid.DBA, Slot: rid.Slot, Row: after, ChangedCols: changedCols,
	})
	tx.m.emit.Emit(cvs)
	tx.noteChange(tbl.Tenant, seg.Obj(), rid.DBA, rid.Slot)
	return nil
}

// DeleteByID deletes the row with the given identity key. The identity index
// keeps its entry: lookups resolve visibility by Consistent Read on the version
// chain, so the delete hides the row once it commits and an abort needs nothing
// restored; an insert that reuses the key overwrites the entry.
func (tx *Txn) DeleteByID(tbl *rowstore.Table, id int64) error {
	idx := tbl.Index()
	if idx == nil {
		return fmt.Errorf("txn: table %q has no identity index", tbl.Name)
	}
	rid, ok := idx.Get(id)
	if !ok {
		return fmt.Errorf("txn: no row with identity %d in %q", id, tbl.Name)
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return ErrTxnDone
	}
	seg, ok := tx.segFor(rid)
	if !ok {
		return fmt.Errorf("txn: no segment for %v", rid)
	}
	if err := seg.Block(rid.DBA.Block()).Delete(rid.Slot, tx.id, tx.m.table); err != nil {
		return err
	}
	cvs := append(tx.controlCVs(tbl.Tenant), redo.CV{
		Kind: redo.CVDelete, Txn: tx.id, Tenant: tbl.Tenant,
		DBA: rid.DBA, Slot: rid.Slot,
	})
	tx.m.emit.Emit(cvs)
	tx.noteChange(tbl.Tenant, seg.Obj(), rid.DBA, rid.Slot)
	return nil
}

// segFor resolves the segment owning a row id via the manager's policy-less
// path: the DBA embeds the object id, which the partition's segment matches.
func (tx *Txn) segFor(rid rowstore.RowID) (*rowstore.Segment, bool) {
	return tx.m.segResolver(rid.DBA.Obj())
}

// segResolver is injected by the owning instance (the database knows its
// segments); set via SetSegmentResolver.
func (m *Manager) segResolver(obj rowstore.ObjID) (*rowstore.Segment, bool) {
	if m.resolve == nil {
		return nil, false
	}
	return m.resolve(obj)
}

// SetSegmentResolver installs the object-id → segment lookup (normally
// Database.Segment).
func (m *Manager) SetSegmentResolver(f func(rowstore.ObjID) (*rowstore.Segment, bool)) {
	m.resolve = f
}

// SetDBIMHook installs (or replaces) the primary-side DBIM maintenance hook.
// Must be called before transactional activity begins.
func (m *Manager) SetDBIMHook(h DBIMHook) {
	m.hook = h
}

// Commit finishes the transaction: it emits the commit CV (whose record SCN
// becomes the commitSCN), stamps the transaction table, and triggers
// primary-side DBIM invalidation. A read-only transaction commits without
// generating redo.
func (tx *Txn) Commit() (scn.SCN, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return scn.Invalid, ErrTxnDone
	}
	tx.done = true
	if !tx.anyWrite {
		// Nothing written: commit is a no-op at the current clock value.
		cur := tx.m.clock.Current()
		tx.m.table.Commit(tx.id, cur)
		return cur, nil
	}
	// Deliver only changes on primary-enabled objects to the DBIM hook.
	var enabled []RowChange
	if tx.m.hook != nil {
		for _, c := range tx.changes {
			if tx.m.policy == nil || tx.m.policy.EnabledPrimary(c.Obj) {
				enabled = append(enabled, c)
			}
		}
	}
	commitSCN := tx.m.emit.EmitCommit([]redo.CV{{
		Kind: redo.CVCommit, Txn: tx.id, Tenant: tx.tenant, HasIMCS: tx.touchIM,
	}}, func(s scn.SCN) {
		// Both the transaction-table update and the column-store
		// invalidation run under the commit gate: no snapshot >= s can be
		// acquired before they complete, so a scan can never find the commit
		// in the row store while the IMCS still serves the stale image.
		tx.m.table.Commit(tx.id, s)
		if len(enabled) > 0 {
			tx.m.hook.OnCommit(tx.tenant, enabled, s)
		}
	})
	return commitSCN, nil
}

// Abort rolls the transaction back: versions it wrote become permanently
// invisible, and an abort control record is logged so the standby's journal
// can discard its invalidation records.
func (tx *Txn) Abort() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return ErrTxnDone
	}
	tx.done = true
	tx.m.table.Abort(tx.id)
	if tx.anyWrite {
		tx.m.emit.Emit([]redo.CV{{Kind: redo.CVAbort, Txn: tx.id, Tenant: tx.tenant}})
	}
	return nil
}
