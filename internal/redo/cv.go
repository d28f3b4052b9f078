// Package redo defines the redo log: change vectors (CVs), redo records,
// their binary wire encoding, and SCN-ordered log streams.
//
// This mirrors the structure described in §II.A of the paper: a redo record
// can contain multiple change vectors, each applicable to a single database
// block identified by its DBA; all CVs of a record share the record's SCN;
// every CV is tagged with its transaction identifier; a transaction's commit
// point is a special "commit CV" whose record SCN is the commitSCN. Redo
// markers (§III.G) describe changes to non-persistent objects such as IMCUs
// and carry DDL information.
package redo

import (
	"fmt"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// CVKind discriminates change-vector types.
type CVKind uint8

const (
	// CVInsert places a new row (full after-image) at DBA/Slot.
	CVInsert CVKind = iota + 1
	// CVUpdate overwrites the row at DBA/Slot with a full after-image and
	// lists the changed columns (used by the mining component).
	CVUpdate
	// CVDelete marks the row at DBA/Slot deleted.
	CVDelete
	// CVBegin is the "transaction begin" control record.
	CVBegin
	// CVCommit is the commit CV: its record SCN is the transaction's
	// commitSCN. It carries the specialized-redo-generation flag (§III.E)
	// indicating whether the transaction touched any IMCS-enabled object.
	CVCommit
	// CVAbort is the rollback control record; the transaction's versions
	// become permanently invisible.
	CVAbort
	// CVMarker is a redo marker (§III.G): a non-transactional record used for
	// DDL/catalog information that must reach the standby's in-memory
	// components.
	CVMarker
)

func (k CVKind) String() string {
	switch k {
	case CVInsert:
		return "INSERT"
	case CVUpdate:
		return "UPDATE"
	case CVDelete:
		return "DELETE"
	case CVBegin:
		return "BEGIN"
	case CVCommit:
		return "COMMIT"
	case CVAbort:
		return "ABORT"
	case CVMarker:
		return "MARKER"
	default:
		return fmt.Sprintf("CVKind(%d)", uint8(k))
	}
}

// IsControl reports whether the CV carries transaction control information
// rather than data changes.
func (k CVKind) IsControl() bool {
	return k == CVBegin || k == CVCommit || k == CVAbort
}

// MarkerKind discriminates redo-marker payloads.
type MarkerKind uint8

const (
	// MarkerCreateTable replicates a catalog CREATE TABLE (with preassigned
	// object ids so the replica is physically identical).
	MarkerCreateTable MarkerKind = iota + 1
	// MarkerTruncate truncates a segment (TRUNCATE TABLE/PARTITION).
	MarkerTruncate
	// MarkerDropColumn is a dictionary-level DROP COLUMN.
	MarkerDropColumn
	// MarkerAlterInMemory changes the INMEMORY attributes of a table or
	// partition (enable/disable population, placement service).
	MarkerAlterInMemory
)

func (k MarkerKind) String() string {
	switch k {
	case MarkerCreateTable:
		return "CREATE TABLE"
	case MarkerTruncate:
		return "TRUNCATE"
	case MarkerDropColumn:
		return "DROP COLUMN"
	case MarkerAlterInMemory:
		return "ALTER INMEMORY"
	default:
		return fmt.Sprintf("MarkerKind(%d)", uint8(k))
	}
}

// Marker is a redo-marker payload.
type Marker struct {
	Kind      MarkerKind
	Tenant    rowstore.TenantID
	TableName string
	// Partition is the target partition name ("" = whole table).
	Partition string
	// Obj is the affected data object (truncate); zero when not applicable.
	Obj rowstore.ObjID
	// Column is the dropped column name for MarkerDropColumn.
	Column string
	// Spec is the replicated table definition for MarkerCreateTable.
	Spec *rowstore.TableSpec
	// InMemory is the attribute payload for MarkerAlterInMemory.
	InMemory *rowstore.InMemoryAttr
}

// CV is a single change vector. The one-, two- and four-byte fields share a
// word, which keeps the struct at 72 bytes: a record's CV list is allocated per
// record, and the 80- and 144-byte classes of one and two CVs are the 96 and
// 192 of a layout with a word for each.
type CV struct {
	Kind CVKind
	// HasIMCS is the specialized redo generation flag on CVCommit (§III.E):
	// whether the transaction modified any object enabled for IMCS
	// population.
	HasIMCS bool
	Slot    uint16
	Tenant  rowstore.TenantID
	Txn     scn.TxnID
	DBA     rowstore.DBA

	// Row is the full after-image for CVInsert/CVUpdate, packed: on the primary
	// the very image the new row version holds, on the standby the one redo
	// apply hands to it. Full-image logging (rather than Oracle's byte-level
	// block deltas) keeps parallel apply workers free of any cross-block
	// base-image dependency; the mining and invalidation protocols under study
	// are unaffected by the image format.
	Row rowstore.Image
	// ChangedCols lists the schema column indexes a CVUpdate modified, checked
	// against the images where the update was made (rowstore.ErrUndeclaredChange).
	// The mining component keeps the CV with its invalidation record, and the
	// invalidation flush patches the column store with these columns of Row; an
	// empty list means "unknown" and the row is re-read from the row store.
	ChangedCols []uint16

	// Marker is the payload for CVMarker.
	Marker *Marker
}

// Obj returns the data object id the CV applies to.
func (cv *CV) Obj() rowstore.ObjID { return cv.DBA.Obj() }

// Record is one redo record: a set of change vectors made at the same SCN by
// one generating instance (redo thread).
type Record struct {
	SCN    scn.SCN
	Thread uint16 // generating primary instance id (RAC redo thread)
	// size caches WireSize; NewRecord and the frame reader set it before the
	// record is shared. In Thread's padding, Record keeps its 48-byte class.
	size uint32
	CVs  []CV

	// OriginNS is the primary-side wall clock (UnixNano) at which the record
	// was emitted — for a commit record, the moment of commit. It rides the
	// wire as an optional tagged frame extension (see codec.go), so the
	// standby's freshness tracer can measure true commit-to-visible latency.
	// Zero means the origin timestamp was absent from the frame.
	OriginNS int64
}

// NewRecord builds a record and fixes its wire size once, however many streams
// it is appended to.
func NewRecord(s scn.SCN, thread uint16, cvs []CV, originNS int64) *Record {
	r := &Record{SCN: s, Thread: thread, CVs: cvs, OriginNS: originNS}
	r.size = uint32(r.WireSize())
	return r
}

// CommitSCN returns the commitSCN for a commit CV inside this record: by the
// paper's model, the commit CV's record SCN is the commitSCN.
func (r *Record) CommitSCN() scn.SCN { return r.SCN }
