package scanengine

import (
	"fmt"
	"math"
	"strings"
	"time"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// Task/unit decisions recorded in a Profile. They name the scan paths of the
// paper's §II.B hybrid scan: a task either evaluates compressed columns
// ("scan"), skips them via a storage index or dictionary probe ("pruned-*"),
// or falls back to a Consistent Read of the row store.
const (
	// DecisionRowStore is a planned row-store range scan (blocks with no
	// populated IMCU — gaps and the "without DBIM" baseline).
	DecisionRowStore = "rowstore"
	// DecisionScan evaluates the IMCU's compressed columns.
	DecisionScan = "scan"
	// DecisionEmpty is an IMCU with zero captured row positions.
	DecisionEmpty = "empty"
	// DecisionPrunedMinMax skips the IMCU because a filter cannot match the
	// column's min/max storage index.
	DecisionPrunedMinMax = "pruned-minmax"
	// DecisionPrunedDict skips the IMCU because an equality literal is absent
	// from the column's sorted dictionary.
	DecisionPrunedDict = "pruned-dict"
	// DecisionFallbackUnusable reads the unit's block range from the row
	// store: the unit is populating, coarse-invalidated or dropped.
	DecisionFallbackUnusable = "fallback-unusable"
	// DecisionFallbackSnapshot reads from the row store because the IMCU's
	// population snapshot is newer than the scan snapshot.
	DecisionFallbackSnapshot = "fallback-snapshot"
	// DecisionFallbackSchema reads from the row store because the live schema
	// no longer matches the one the IMCU was built with.
	DecisionFallbackSchema = "fallback-schema"
)

// Dominant-path labels returned by Profile.Path.
const (
	PathIMCS     = "imcs"
	PathRowStore = "rowstore"
	PathMixed    = "mixed"
)

// TaskProfile records one scan task: a populated column-store unit or a
// row-store block range, with its pruning decision and (under ANALYZE) the
// rows each serving path produced and the task's wall time.
type TaskProfile struct {
	// Kind is "imcu" or "rowstore".
	Kind string `json:"kind"`
	// From/To is the block range [From, To) the task covers.
	From rowstore.BlockNo `json:"from_blk"`
	To   rowstore.BlockNo `json:"to_blk"`
	// Decision is one of the Decision* constants.
	Decision string `json:"decision"`
	// Rows is the IMCU's captured row-position count (imcu tasks only).
	Rows int `json:"rows,omitempty"`

	// PruneCol/PruneOp/PruneLit identify the filter that pruned, and
	// PruneMin/PruneMax the storage-index bounds that caused it.
	PruneCol string `json:"prune_col,omitempty"`
	PruneOp  string `json:"prune_op,omitempty"`
	PruneLit string `json:"prune_lit,omitempty"`
	PruneMin string `json:"prune_min,omitempty"`
	PruneMax string `json:"prune_max,omitempty"`

	// Per-path matching row counts (ANALYZE only): compressed columns,
	// journal-invalidated rows re-read from the row store, tail rows appended
	// after population, and plain row-store range rows. RowsDelta is the part
	// of RowsIMCS that was invalid rows patched from the unit's column delta.
	RowsIMCS     int64 `json:"rows_imcs,omitempty"`
	RowsDelta    int64 `json:"rows_delta,omitempty"`
	RowsInvalid  int64 `json:"rows_invalid,omitempty"`
	RowsTail     int64 `json:"rows_tail,omitempty"`
	RowsRowStore int64 `json:"rows_rowstore,omitempty"`
	// RowBlocks/RowBatches are what the three row-store paths cost the task:
	// blocks latched, and batches of row images filtered and folded.
	RowBlocks  int64 `json:"row_blocks,omitempty"`
	RowBatches int64 `json:"row_batches,omitempty"`
	// Batches is the number of vectorized predicate-evaluation batches run.
	Batches int64 `json:"batches,omitempty"`
	// RowsEncoded/RowsDecoded split the task's aggregate folds over
	// IMCS-served rows into encoded-space (run-level) and decoded folds.
	RowsEncoded int64 `json:"rows_encoded,omitempty"`
	RowsDecoded int64 `json:"rows_decoded,omitempty"`
	// WallNanos is the task's busy time (ANALYZE only): the summed wall time
	// of its morsels, which may run concurrently on several workers.
	WallNanos int64 `json:"wall_ns,omitempty"`
	// Morsels is the number of scheduling granules the task split into
	// (ANALYZE only).
	Morsels int64 `json:"morsels,omitempty"`
}

// WorkerProfile records one scan worker's share of a query (ANALYZE only):
// morsels executed, morsels it stole from other workers' deques, and its
// busy time.
type WorkerProfile struct {
	Worker    int   `json:"worker"`
	Morsels   int64 `json:"morsels"`
	Steals    int64 `json:"steals,omitempty"`
	BusyNanos int64 `json:"busy_ns,omitempty"`
}

// PartitionProfile records one partition's pruning decision and, when kept,
// the scan tasks planned over its segment.
type PartitionProfile struct {
	Name string `json:"name"`
	// Lo/Hi is the partition's key range [Lo, Hi) (0/0 for unpartitioned).
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// Pruned is true when partition pruning eliminated the segment;
	// PruneCol/PruneOp/PruneLit identify the responsible filter.
	Pruned   bool   `json:"pruned"`
	PruneCol string `json:"prune_col,omitempty"`
	PruneOp  string `json:"prune_op,omitempty"`
	PruneLit string `json:"prune_lit,omitempty"`

	Tasks []TaskProfile `json:"tasks,omitempty"`
}

// Profile is the per-query observability record of one scan: the plan
// (partition and IMCU pruning decisions) and, when Analyze is set, the
// actuals — per-path row counts, batch counts, and wall times. It is
// collected by Executor.RunProfiled / Explain and surfaced as EXPLAIN /
// EXPLAIN ANALYZE, the /debug/queries endpoint, and the slow-query log.
type Profile struct {
	// SQL is the originating statement, when the query came through sqlmini.
	SQL string `json:"sql,omitempty"`
	// Table is the scanned table's name.
	Table string `json:"table"`
	// SnapSCN is the scan's Consistent Read snapshot.
	SnapSCN scn.SCN `json:"snap_scn"`
	// Analyze is true when the query executed (EXPLAIN ANALYZE); false for a
	// plan-only EXPLAIN.
	Analyze bool `json:"analyze"`
	// Parallel is the scan's worker count: the effective (default-resolved,
	// morsel-clamped) parallelism for an executed query, the query's
	// requested parallelism for a plan-only EXPLAIN.
	Parallel int `json:"parallel"`
	// MorselRows is the scheduling granule the scan split into, Morsels the
	// resulting morsel count (planned for EXPLAIN, executed for ANALYZE), and
	// Steals how many morsels ran off their affinity-placed worker.
	MorselRows int   `json:"morsel_rows,omitempty"`
	Morsels    int64 `json:"morsels,omitempty"`
	Steals     int64 `json:"steals,omitempty"`
	// Workers holds the per-worker scheduling actuals (ANALYZE only).
	Workers []WorkerProfile `json:"workers,omitempty"`
	// WallNanos is the whole query's wall time (ANALYZE only).
	WallNanos int64 `json:"wall_ns,omitempty"`
	// ResultRows is the result cardinality: matching rows for plain scans,
	// aggregated input rows for pushed-down aggregates. It always equals
	// RowsIMCS + RowsInvalid + RowsTail + RowsRowStore.
	ResultRows int64 `json:"result_rows"`

	// Totals across every task (ANALYZE only for the row counts).
	RowsIMCS      int64 `json:"rows_imcs"`
	RowsDelta     int64 `json:"rows_delta,omitempty"` // of RowsIMCS: invalid rows the column deltas explained
	RowsInvalid   int64 `json:"rows_invalid"`
	RowsTail      int64 `json:"rows_tail"`
	RowsRowStore  int64 `json:"rows_rowstore"`
	RowBlocks     int64 `json:"row_blocks,omitempty"`
	RowBatches    int64 `json:"row_batches,omitempty"`
	UnitsScanned  int64 `json:"units_scanned"`
	UnitsPruned   int64 `json:"units_pruned"`
	UnitsFallback int64 `json:"units_fallback"`
	Batches       int64 `json:"batches"`
	// RowsEncoded/RowsDecoded split the aggregate folds over IMCS-served rows
	// into encoded-space (RLE/constant run-level) and decoded folds; Groups is
	// the emitted group cardinality of a GROUP BY query (ANALYZE only).
	RowsEncoded int64 `json:"rows_encoded,omitempty"`
	RowsDecoded int64 `json:"rows_decoded,omitempty"`
	Groups      int64 `json:"groups,omitempty"`

	Partitions []*PartitionProfile `json:"partitions"`
}

// Wall returns the query's wall time.
func (p *Profile) Wall() time.Duration { return time.Duration(p.WallNanos) }

// Path classifies the query by where its matching rows were served:
// PathIMCS (column store only), PathRowStore (row store only), or PathMixed.
// Row-less queries are classified by whether the scan touched the column
// store at all.
func (p *Profile) Path() string {
	rs := p.RowsInvalid + p.RowsTail + p.RowsRowStore
	switch {
	case p.RowsIMCS > 0 && rs > 0:
		return PathMixed
	case p.RowsIMCS > 0:
		return PathIMCS
	case rs > 0:
		return PathRowStore
	case p.UnitsScanned+p.UnitsPruned > 0:
		return PathIMCS
	default:
		return PathRowStore
	}
}

// String renders the profile as an EXPLAIN-style plan, one line per partition
// and per task, ending with the path totals.
func (p *Profile) String() string {
	var b strings.Builder
	if p.SQL != "" {
		// Statements that arrived through the SQL front end already carry
		// their EXPLAIN prefix; only bare statements get the mode prepended.
		if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(p.SQL)), "EXPLAIN") {
			fmt.Fprintf(&b, "%s\n", p.SQL)
		} else if p.Analyze {
			fmt.Fprintf(&b, "EXPLAIN ANALYZE %s\n", p.SQL)
		} else {
			fmt.Fprintf(&b, "EXPLAIN %s\n", p.SQL)
		}
	}
	fmt.Fprintf(&b, "scan %s snap=%d parallel=%d", p.Table, p.SnapSCN, max(p.Parallel, 1))
	if p.Morsels > 0 {
		fmt.Fprintf(&b, " morsels=%d(x%d rows)", p.Morsels, p.MorselRows)
	}
	if p.Analyze {
		fmt.Fprintf(&b, " wall=%v rows=%d", p.Wall().Round(time.Microsecond), p.ResultRows)
	}
	b.WriteByte('\n')
	if p.Analyze && len(p.Workers) > 1 {
		for _, w := range p.Workers {
			fmt.Fprintf(&b, "  worker %d: morsels=%d steals=%d busy=%v\n",
				w.Worker, w.Morsels, w.Steals, time.Duration(w.BusyNanos).Round(time.Microsecond))
		}
	}
	for _, part := range p.Partitions {
		name := part.Name
		if name == "" {
			name = "-"
		}
		fmt.Fprintf(&b, "  partition %s", name)
		// Suppress the key range for the synthetic whole-domain partition of
		// unpartitioned tables.
		if (part.Lo != 0 || part.Hi != 0) && !(part.Lo == math.MinInt64 && part.Hi == math.MaxInt64) {
			fmt.Fprintf(&b, " [%d,%d)", part.Lo, part.Hi)
		}
		if part.Pruned {
			fmt.Fprintf(&b, ": pruned by %s %s %s\n", part.PruneCol, part.PruneOp, part.PruneLit)
			continue
		}
		b.WriteByte('\n')
		for i := range part.Tasks {
			t := &part.Tasks[i]
			fmt.Fprintf(&b, "    %s blocks [%d,%d)", t.Kind, t.From, t.To)
			if t.Kind == "imcu" {
				fmt.Fprintf(&b, " rows=%d %s", t.Rows, t.Decision)
				if t.PruneCol != "" {
					fmt.Fprintf(&b, " %s[%s,%s] vs %s %s",
						t.PruneCol, t.PruneMin, t.PruneMax, t.PruneOp, t.PruneLit)
				}
			}
			if p.Analyze {
				if t.Kind == "imcu" && t.Decision == DecisionScan {
					fmt.Fprintf(&b, " batches=%d", t.Batches)
				}
				fmt.Fprintf(&b, " imcs=%d invalid=%d tail=%d rowstore=%d", t.RowsIMCS, t.RowsInvalid, t.RowsTail, t.RowsRowStore)
				if t.RowsDelta > 0 {
					fmt.Fprintf(&b, " rows_delta=%d", t.RowsDelta)
				}
				if t.RowBlocks > 0 {
					fmt.Fprintf(&b, " rowblocks=%d rowbatches=%d", t.RowBlocks, t.RowBatches)
				}
				fmt.Fprintf(&b, " wall=%v", time.Duration(t.WallNanos).Round(time.Microsecond))
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "totals: rows=%d imcs=%d invalid=%d tail=%d rowstore=%d | units scan=%d pruned=%d fallback=%d batches=%d",
		p.ResultRows, p.RowsIMCS, p.RowsInvalid, p.RowsTail, p.RowsRowStore,
		p.UnitsScanned, p.UnitsPruned, p.UnitsFallback, p.Batches)
	if p.RowsDelta > 0 {
		fmt.Fprintf(&b, " | rows_delta=%d of imcs", p.RowsDelta)
	}
	if p.RowBlocks > 0 {
		fmt.Fprintf(&b, " | row path blocks=%d batches=%d", p.RowBlocks, p.RowBatches)
	}
	if p.Analyze && p.Steals > 0 {
		fmt.Fprintf(&b, " steals=%d", p.Steals)
	}
	if p.RowsEncoded+p.RowsDecoded > 0 {
		fmt.Fprintf(&b, " | agg encoded=%d decoded=%d", p.RowsEncoded, p.RowsDecoded)
	}
	if p.Groups > 0 {
		fmt.Fprintf(&b, " groups=%d", p.Groups)
	}
	b.WriteByte('\n')
	return b.String()
}
