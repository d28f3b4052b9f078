package dbimadg

import (
	"dbimadg/internal/obs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/service"
	"dbimadg/internal/txn"
)

// Re-exported core types: the public API surface of the library. These are
// aliases, so values returned by Cluster methods interoperate directly.
type (
	// SCN is a System Change Number, the logical database clock.
	SCN = scn.SCN
	// TenantID identifies a pluggable tenant.
	TenantID = rowstore.TenantID
	// ColKind is a column data type (NumberKind or VarcharKind).
	ColKind = rowstore.ColKind
	// Column defines one column of a table.
	Column = rowstore.Column
	// Schema is an immutable ordered column list.
	Schema = rowstore.Schema
	// Row is one row image (values split by kind).
	Row = rowstore.Row
	// TableSpec declares a table for CreateTable.
	TableSpec = rowstore.TableSpec
	// PartitionSpec declares one range partition.
	PartitionSpec = rowstore.PartitionSpec
	// Table is a catalog table handle.
	Table = rowstore.Table
	// Partition is one range partition of a table.
	Partition = rowstore.Partition
	// InMemoryAttr is the INMEMORY population policy of a table/partition.
	InMemoryAttr = rowstore.InMemoryAttr
	// RowID addresses one row slot.
	RowID = rowstore.RowID

	// Txn is a read-write transaction on the primary.
	Txn = txn.Txn

	// Query describes a scan (filters, projection, aggregation).
	Query = scanengine.Query
	// Filter is one column comparison.
	Filter = scanengine.Filter
	// Result is a completed scan.
	Result = scanengine.Result
	// CmpOp is a comparison operator.
	CmpOp = scanengine.CmpOp
	// AggKind selects a pushed-down aggregate.
	AggKind = scanengine.AggKind
	// AggSpec names one select-list aggregate (Query.Aggs entry).
	AggSpec = scanengine.AggSpec
	// GroupedResult is a GROUP BY result (Result.Grouped), with groups in
	// deterministic key order regardless of scan parallelism.
	GroupedResult = scanengine.GroupedResult
	// GroupRow is one output group of a GroupedResult.
	GroupRow = scanengine.GroupRow
	// GroupValue is one group-key value of a GroupRow.
	GroupValue = scanengine.GroupValue

	// ScanProfile is a per-query EXPLAIN / EXPLAIN ANALYZE document: the
	// partition and IMCU pruning decisions plus (under ANALYZE) per-path
	// row counts and wall times.
	ScanProfile = scanengine.Profile
	// PartitionProfile is one partition's entry in a ScanProfile.
	PartitionProfile = scanengine.PartitionProfile
	// TaskProfile is one scan task's entry in a ScanProfile.
	TaskProfile = scanengine.TaskProfile
	// QueryRecord is one entry of the standby's recent/slow query log.
	QueryRecord = obs.QueryRecord
	// QueryLog is the bounded recent/slow query log behind /debug/queries.
	QueryLog = obs.QueryLog

	// ServiceRole is a database role a service runs on.
	ServiceRole = service.Role
)

// ErrSnapshotTooOld refuses a query or fetch at a snapshot below the standby's
// reclaim floor: the row versions it needs were freed (Oracle's ORA-01555).
var ErrSnapshotTooOld = rowstore.ErrSnapshotTooOld

// Column kinds.
const (
	// NumberKind is a 64-bit integer column (NUMBER).
	NumberKind = rowstore.KindNumber
	// VarcharKind is a string column (VARCHAR2).
	VarcharKind = rowstore.KindVarchar
)

// Comparison operators.
const (
	EQ = scanengine.EQ
	NE = scanengine.NE
	LT = scanengine.LT
	LE = scanengine.LE
	GT = scanengine.GT
	GE = scanengine.GE
)

// Aggregations.
const (
	AggNone  = scanengine.AggNone
	AggCount = scanengine.AggCount
	AggSum   = scanengine.AggSum
	AggMin   = scanengine.AggMin
	AggMax   = scanengine.AggMax
)

// Service roles.
const (
	// RolePrimary marks a service running on the primary database.
	RolePrimary = service.RolePrimary
	// RoleStandby marks a service running on the standby database.
	RoleStandby = service.RoleStandby
)

// EqNum builds an equality filter on a number column (by schema column
// index).
func EqNum(col int, v int64) Filter { return scanengine.EqNum(col, v) }

// EqStr builds an equality filter on a varchar column.
func EqStr(col int, v string) Filter { return scanengine.EqStr(col, v) }

// NewRow allocates a zero row shaped for a schema.
func NewRow(s *Schema) Row { return rowstore.NewRow(s) }
