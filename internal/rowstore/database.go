package rowstore

import (
	"fmt"
	"math"
	"sync"

	"dbimadg/internal/scn"
)

// DefaultRowsPerBlock is the default row capacity per data block.
const DefaultRowsPerBlock = 128

// tableKey scopes table names by tenant.
type tableKey struct {
	tenant TenantID
	name   string
}

// Database is the physical database: the catalog of tables, the segment
// registry keyed by data object id, and object id allocation. Both the primary
// and the standby hold a Database; the standby's is kept physically identical
// by redo apply (data change vectors) and catalog replication (marker change
// vectors carrying TableSpecs with preassigned object ids).
type Database struct {
	rowsPerBlock int

	mu      sync.RWMutex
	tables  map[tableKey]*Table
	segs    map[ObjID]*Segment
	nextObj ObjID
}

// NewDatabase returns an empty database. rowsPerBlock <= 0 selects the
// default.
func NewDatabase(rowsPerBlock int) *Database {
	if rowsPerBlock <= 0 {
		rowsPerBlock = DefaultRowsPerBlock
	}
	return &Database{
		rowsPerBlock: rowsPerBlock,
		tables:       make(map[tableKey]*Table),
		segs:         make(map[ObjID]*Segment),
	}
}

// RowsPerBlock returns the per-block row capacity used by new segments.
func (db *Database) RowsPerBlock() int { return db.rowsPerBlock }

// CreateTable creates a table from spec and returns it. When spec partitions
// carry preassigned object ids (catalog replication), they are honoured;
// otherwise fresh ids are allocated and written back into spec so the caller
// can ship the completed spec to the standby.
func (db *Database) CreateTable(spec *TableSpec) (*Table, error) {
	schema, err := NewSchema(spec.Columns)
	if err != nil {
		return nil, err
	}
	if spec.IdentityCol >= schema.NumCols() ||
		(spec.IdentityCol >= 0 && schema.Col(spec.IdentityCol).Kind != KindNumber) {
		return nil, fmt.Errorf("rowstore: identity column %d of %q must be an existing NUMBER column", spec.IdentityCol, spec.Name)
	}
	if spec.PartitionCol >= 0 {
		if spec.PartitionCol >= schema.NumCols() || schema.Col(spec.PartitionCol).Kind != KindNumber {
			return nil, fmt.Errorf("rowstore: partition column %d of %q must be an existing NUMBER column", spec.PartitionCol, spec.Name)
		}
		if len(spec.Partitions) == 0 {
			return nil, fmt.Errorf("rowstore: partitioned table %q needs at least one partition", spec.Name)
		}
	} else {
		if len(spec.Partitions) > 1 {
			return nil, fmt.Errorf("rowstore: table %q has partitions but no partition column", spec.Name)
		}
		if len(spec.Partitions) == 0 {
			spec.Partitions = []PartitionSpec{{Name: "", Lo: math.MinInt64, Hi: math.MaxInt64}}
		}
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	key := tableKey{spec.Tenant, spec.Name}
	if _, dup := db.tables[key]; dup {
		return nil, fmt.Errorf("rowstore: table %q already exists for tenant %d", spec.Name, spec.Tenant)
	}
	tbl := &Table{
		Name:         spec.Name,
		Tenant:       spec.Tenant,
		IdentityCol:  spec.IdentityCol,
		PartitionCol: spec.PartitionCol,
		schema:       schema,
	}
	if spec.IdentityCol >= 0 {
		tbl.index = NewIndex()
	}
	for i := range spec.Partitions {
		ps := &spec.Partitions[i]
		if ps.Obj == 0 {
			db.nextObj++
			ps.Obj = db.nextObj
		} else if ps.Obj > db.nextObj {
			db.nextObj = ps.Obj
		}
		if _, dup := db.segs[ps.Obj]; dup {
			return nil, fmt.Errorf("rowstore: object id %d already in use", ps.Obj)
		}
		seg := NewSegment(ps.Obj, spec.Tenant, spec.Name, ps.Name, db.rowsPerBlock)
		db.segs[ps.Obj] = seg
		tbl.parts = append(tbl.parts, &Partition{Name: ps.Name, Lo: ps.Lo, Hi: ps.Hi, Seg: seg})
	}
	db.tables[key] = tbl
	return tbl, nil
}

// Table returns the named table for tenant.
func (db *Database) Table(tenant TenantID, name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tbl, ok := db.tables[tableKey{tenant, name}]
	if !ok {
		return nil, fmt.Errorf("rowstore: no table %q for tenant %d", name, tenant)
	}
	return tbl, nil
}

// Segment returns the segment for a data object id.
func (db *Database) Segment(obj ObjID) (*Segment, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seg, ok := db.segs[obj]
	return seg, ok
}

// TableForObj returns the table owning a data object id.
func (db *Database) TableForObj(obj ObjID) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seg, ok := db.segs[obj]
	if !ok {
		return nil, false
	}
	tbl, ok := db.tables[tableKey{seg.Tenant(), seg.TableName()}]
	return tbl, ok
}

// Tables returns all tables (all tenants) in unspecified order.
func (db *Database) Tables() []*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t)
	}
	return out
}

// ResetAllocCursors seals the applied contents of every segment for
// primary-side insert allocation — the role-transition step that turns a
// standby replica into a writable database (see Segment.ResetAllocCursor).
func (db *Database) ResetAllocCursors() {
	for _, tbl := range db.Tables() {
		for _, seg := range tbl.Segments() {
			seg.ResetAllocCursor()
		}
	}
}

// Vacuum prunes version chains across the whole database with the given
// horizon, returning the number of versions freed. The horizon must not
// exceed the oldest snapshot still readable (on the standby: the QuerySCN; on
// the primary: the oldest active query snapshot).
func (db *Database) Vacuum(horizon scn.SCN, view TxnView) int {
	freed := 0
	db.forEachBlock(func(b *Block) { freed += b.Vacuum(horizon, view) })
	return freed
}

// Footprint walks every block's version chains, a block's read latch at a
// time: a debug reading, not for a hot path.
func (db *Database) Footprint() Footprint {
	var f Footprint
	db.forEachBlock(func(b *Block) { b.addTo(&f) })
	return f
}

func (db *Database) forEachBlock(f func(*Block)) {
	for _, tbl := range db.Tables() {
		for _, seg := range tbl.Segments() {
			seg.ForEachBlock(func(b *Block) bool { f(b); return true })
		}
	}
}
