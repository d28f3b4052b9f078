// Package rowstore implements the row-format substrate of the database: fixed
// schemas, multi-versioned data blocks addressed by Database Block Address
// (DBA), segments, range partitions and the identity index.
//
// The row store plays the role of Oracle's buffer-cache/datafile row format in
// the paper's dual-format architecture. Rows are multi-versioned: every write
// pushes a new version tagged with its transaction id, and readers resolve
// visibility against a transaction table under the Consistent Read (CR) model.
// Version chains double as undo: a reader at snapshot S walks the chain to the
// first version whose transaction committed at or before S.
package rowstore

import (
	"fmt"

	"dbimadg/internal/scn"
)

// ColKind is the data type of a column. Only the two kinds exercised by the
// paper's workload (NUMBER and VARCHAR2) are supported.
type ColKind uint8

const (
	// KindNumber is a 64-bit integer column (Oracle NUMBER in the paper's
	// synthetic schema).
	KindNumber ColKind = iota
	// KindVarchar is a variable-length string column (VARCHAR2).
	KindVarchar
)

func (k ColKind) String() string {
	switch k {
	case KindNumber:
		return "NUMBER"
	case KindVarchar:
		return "VARCHAR2"
	default:
		return fmt.Sprintf("ColKind(%d)", uint8(k))
	}
}

// TenantID identifies a pluggable tenant. The paper's infrastructure runs in
// multi-tenant mode; invalidation records and coarse invalidation are scoped
// by tenant.
type TenantID uint32

// Column describes one column of a schema.
type Column struct {
	Name string
	Kind ColKind
	// slot is the index of this column within its kind's value array in Row.
	slot int
}

// Slot returns the column's index within its kind's value array (Nums for
// KindNumber, Strs for KindVarchar).
func (c Column) Slot() int { return c.slot }

// Schema is an ordered list of columns. Schemas are immutable once built;
// DDL produces a new Schema.
type Schema struct {
	cols     []Column
	byName   map[string]int
	numCount int
	strCount int
}

// NewSchema builds a schema from column definitions. Column names must be
// unique (case-sensitive).
func NewSchema(cols []Column) (*Schema, error) {
	s := &Schema{
		cols:   make([]Column, len(cols)),
		byName: make(map[string]int, len(cols)),
	}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("rowstore: column %d has empty name", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("rowstore: duplicate column name %q", c.Name)
		}
		switch c.Kind {
		case KindNumber:
			c.slot = s.numCount
			s.numCount++
		case KindVarchar:
			c.slot = s.strCount
			s.strCount++
		default:
			return nil, fmt.Errorf("rowstore: column %q has unknown kind %d", c.Name, c.Kind)
		}
		s.cols[i] = c
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error; intended for tests and
// static schemas.
func MustSchema(cols []Column) *Schema {
	s, err := NewSchema(cols)
	if err != nil {
		panic(err)
	}
	return s
}

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// ColIndex returns the index of the named column, or -1 if absent.
func (s *Schema) ColIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// NumberSlots returns how many KindNumber columns the schema has.
func (s *Schema) NumberSlots() int { return s.numCount }

// VarcharSlots returns how many KindVarchar columns the schema has.
func (s *Schema) VarcharSlots() int { return s.strCount }

// DropColumn returns a new schema without the named column. It is used to
// model dictionary-level DDL; the row data itself is not rewritten (dropped
// columns simply become unaddressable), matching the paper's description of
// dictionary-only DDL operations.
func (s *Schema) DropColumn(name string) (*Schema, error) {
	idx := s.ColIndex(name)
	if idx < 0 {
		return nil, fmt.Errorf("rowstore: no column %q", name)
	}
	out := &Schema{
		cols:     make([]Column, 0, len(s.cols)-1),
		byName:   make(map[string]int, len(s.cols)-1),
		numCount: s.numCount,
		strCount: s.strCount,
	}
	// Keep original slots so existing row images remain addressable.
	for i, c := range s.cols {
		if i == idx {
			continue
		}
		out.byName[c.Name] = len(out.cols)
		out.cols = append(out.cols, c)
	}
	return out, nil
}

// Row is a row's values unpacked, split by kind: Nums holds the KindNumber
// column values indexed by Column.Slot, Strs the KindVarchar values. It is the
// exchange type at the API edge — what callers fill for an insert, change in an
// update callback and get back from a fetch or a scan; the row store itself
// keeps and ships the packed Image.
type Row struct {
	Nums []int64
	Strs []string
}

// NewRow allocates a zero row shaped for schema s.
func NewRow(s *Schema) Row {
	return Row{
		Nums: make([]int64, s.numCount),
		Strs: make([]string, s.strCount),
	}
}

// Num returns the value of the schema's i-th column, which must be a number
// column.
func (r Row) Num(s *Schema, col int) int64 { return r.Nums[s.cols[col].slot] }

// Str returns the value of the schema's i-th column, which must be a varchar
// column.
func (r Row) Str(s *Schema, col int) string { return r.Strs[s.cols[col].slot] }

// Equal reports whether two rows carry identical values.
func (r Row) Equal(o Row) bool {
	if len(r.Nums) != len(o.Nums) || len(r.Strs) != len(o.Strs) {
		return false
	}
	for i, v := range r.Nums {
		if o.Nums[i] != v {
			return false
		}
	}
	for i, v := range r.Strs {
		if o.Strs[i] != v {
			return false
		}
	}
	return true
}

// TxnStatus is the lifecycle state of a transaction as recorded in a
// transaction table.
type TxnStatus uint8

const (
	// TxnUnknown means the transaction table has no entry; treated as active
	// (not yet visible) by readers.
	TxnUnknown TxnStatus = iota
	// TxnActive is an in-flight transaction.
	TxnActive
	// TxnCommitted is a committed transaction with a commitSCN.
	TxnCommitted
	// TxnAborted is a rolled-back transaction; its versions are never visible.
	TxnAborted
)

// TxnView resolves transaction visibility for Consistent Read. Both the
// primary (its live transaction table) and the standby (a table maintained by
// redo apply of begin/commit/abort change vectors) implement it.
//
// Committed and aborted are final: once Lookup has returned TxnCommitted with
// a commitSCN for an id it returns nothing else for that id until the entry is
// forgotten, and likewise for TxnAborted. Readers rely on it — a row version
// caches the commitSCN the first reader resolved (see version.commit) and is
// never asked about again — so an implementation must ignore any attempt to
// reopen a finished transaction, a replayed begin included.
type TxnView interface {
	// Lookup returns the status of the transaction and, when committed, its
	// commitSCN.
	Lookup(id scn.TxnID) (TxnStatus, scn.SCN)
}
