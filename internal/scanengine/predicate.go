// Package scanengine implements the In-Memory Scan Engine (paper §II.B): it
// executes scans at a Consistent Read snapshot, serving valid rows from the
// column store with batched (vectorized) predicate evaluation, in-memory
// storage-index pruning and dictionary-code comparison, while reconciling
// with each IMCU's SMU so that invalid or stale data is read from the row
// store instead. It also executes the pure row-store scan used when an object
// is not populated (the paper's "without DBIM" baseline).
package scanengine

import "fmt"

// CmpOp is a comparison operator.
type CmpOp uint8

const (
	// EQ is equality.
	EQ CmpOp = iota
	// NE is inequality.
	NE
	// LT is less-than.
	LT
	// LE is less-or-equal.
	LE
	// GT is greater-than.
	GT
	// GE is greater-or-equal.
	GE
)

func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(o))
	}
}

// Filter is one column comparison; a query's filters are ANDed.
type Filter struct {
	// Col is the schema column index.
	Col int
	Op  CmpOp
	// Num is the comparison literal for NUMBER columns, Str for VARCHAR2.
	Num int64
	Str string
}

// EqNum builds an equality filter on a number column.
func EqNum(col int, v int64) Filter { return Filter{Col: col, Op: EQ, Num: v} }

// EqStr builds an equality filter on a varchar column.
func EqStr(col int, v string) Filter { return Filter{Col: col, Op: EQ, Str: v} }

func cmpStr(a string, op CmpOp, b string) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	return false
}

// numRangeOverlaps reports whether a storage-index range [mn, mx] can contain
// a value satisfying (op, v); false allows pruning the IMCU scan.
func numRangeOverlaps(mn, mx int64, op CmpOp, v int64) bool {
	switch op {
	case EQ:
		return v >= mn && v <= mx
	case NE:
		return !(mn == mx && mn == v)
	case LT:
		return mn < v
	case LE:
		return mn <= v
	case GT:
		return mx > v
	case GE:
		return mx >= v
	}
	return true
}

// strRangeOverlaps is the string analogue of numRangeOverlaps.
func strRangeOverlaps(mn, mx string, op CmpOp, v string) bool {
	switch op {
	case EQ:
		return v >= mn && v <= mx
	case NE:
		return !(mn == mx && mn == v)
	case LT:
		return mn < v
	case LE:
		return mn <= v
	case GT:
		return mx > v
	case GE:
		return mx >= v
	}
	return true
}
