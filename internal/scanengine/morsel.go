package scanengine

import (
	"sync"
	"sync/atomic"
	"time"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// This file holds the morsel-driven scheduler: planTasks resolves every scan
// task's IMCU view and pruning verdict once at plan time, planMorsels splits
// the tasks into fixed-size row-range morsels, and runMorsels drives them
// through per-worker deques with steal-from-random-victim. Each worker folds
// into its own operator state (taskResult); partials merge once at
// end-of-query, so aggregation needs no locks on the hot path.

// DefaultMorselRows is the scheduling granule when neither the executor nor
// its owner configured one: large enough that a morsel amortizes its
// scheduling cost over several predicate batches, small enough that one slow
// unit (wide invalid ranges, row-store fallback) splits across cores.
const DefaultMorselRows = 4096

// taskState is one planned scan task with its decision resolved: either a
// populated column-store unit (with the ScanView captured once, so every
// morsel of the task sees the same IMCU/invalid bitmap) or a raw block range.
// Under profiling, morsels accumulate the task's actuals atomically — morsels
// of one task run concurrently on several workers.
type taskState struct {
	seg  *rowstore.Segment
	part int // index into the query's partition decisions
	from rowstore.BlockNo
	to   rowstore.BlockNo

	kind     string // "imcu" or "rowstore"
	decision string // Decision* constant
	prune    *pruneInfo
	imcu     *imcs.IMCU // set when the task scans through the view (scan, pruned or empty)
	invalid  []uint64
	view     *imcs.View // imcu and invalid are its; its delta explains invalid rows
	rows     int        // captured row positions (usable imcu tasks)
	affinity int        // preferred initial worker (population worker, else partition)

	pCounts  [numCounters]atomic.Int64 // pathCounters
	pWall    atomic.Int64
	pMorsels atomic.Int64
}

// taskProfile renders the task as a TaskProfile. Plan-time fields are always
// present; the actuals are whatever the profiling accumulators hold (zero for
// plan-only Explain).
func (ts *taskState) taskProfile(schema *rowstore.Schema) TaskProfile {
	tp := TaskProfile{Kind: ts.kind, From: ts.from, To: ts.to, Decision: ts.decision, Rows: ts.rows}
	if ts.prune != nil {
		ts.prune.fill(&tp, schema)
	}
	var c pathCounters
	for i := range c {
		c[i] = ts.pCounts[i].Load()
	}
	tp.RowsIMCS, tp.RowsDelta, tp.RowsInvalid, tp.RowsTail = c[cIMCS], c[cDelta], c[cInvalid], c[cTail]
	tp.RowsRowStore = c[cRowStore] - c[cInvalid] - c[cTail]
	tp.RowBlocks, tp.RowBatches, tp.Batches = c[cRowBlocks], c[cRowBatches], c[cBatches]
	tp.RowsEncoded, tp.RowsDecoded = c[cEncoded], c[cDecoded]
	tp.WallNanos, tp.Morsels = ts.pWall.Load(), ts.pMorsels.Load()
	return tp
}

// planTasks applies partition pruning and resolves every kept segment's scan
// tasks, capturing each unit's ScanView and pruning verdict once. Explain and
// exec share this planning step, so EXPLAIN predictions always match what a
// run at the same snapshot records.
func (ex *Executor) planTasks(q *Query, schema *rowstore.Schema, snap scn.SCN, pb *planBuf) ([]partDecision, []*taskState) {
	decs := ex.partitionDecisions(q)
	var tasks []*taskState
	for pi, d := range decs {
		if !d.keep {
			continue
		}
		ex.planSegment(d.part.Seg, func(u *imcs.Unit, from, to rowstore.BlockNo) {
			ts := &taskState{seg: d.part.Seg, part: pi, from: from, to: to, affinity: pi}
			tasks = append(tasks, ts)
			if u == nil {
				ts.kind, ts.decision = "rowstore", DecisionRowStore
				return
			}
			ts.kind, ts.view = "imcu", pb.view()
			usable := u.View(ts.view)
			imcu, invalid := ts.view.IMCU, ts.view.Invalid
			// An IMCU can only serve snapshots at or after its population
			// snapshot, and only while the live schema matches the one it was
			// built with.
			switch {
			case !usable:
				ts.decision = DecisionFallbackUnusable
			case imcu.SnapSCN > snap:
				ts.decision = DecisionFallbackSnapshot
			case imcu.Schema() != schema:
				ts.decision = DecisionFallbackSchema
			case imcu.Rows() == 0:
				ts.decision = DecisionEmpty
				ts.imcu, ts.invalid = imcu, invalid
				ts.affinity = imcu.PopulatedBy
			default:
				ts.imcu, ts.invalid, ts.rows = imcu, invalid, imcu.Rows()
				ts.affinity = imcu.PopulatedBy
				if pr := pruneIMCU(schema, imcu, q.Filters); pr != nil {
					ts.decision, ts.prune = pr.decision, pr
				} else {
					ts.decision = DecisionScan
				}
			}
		})
	}
	return decs, tasks
}

// morsel kinds.
const (
	morselIMCURows = iota // IMCU row window [lo, hi)
	morselInvalid         // SMU-invalidated row re-reads over window [lo, hi)
	morselTail            // post-population tail rows of the unit's blocks
	morselBlocks          // row-store block range [lo, hi)
)

// morsel is one unit of schedulable scan work within a task.
type morsel struct {
	ts     *taskState
	kind   uint8
	lo, hi int // rows (morselIMCURows/morselInvalid) or blocks (morselBlocks)
}

// planMorsels splits the planned tasks into morsels of ~morselRows rows.
// Scan tasks get row-window morsels over the IMCU; pruned and empty units
// still get their invalid/tail reconciliation morsels (invalidated and
// appended rows can match even when the captured columns cannot); fallback
// and gap tasks split by blocks.
func planMorsels(tasks []*taskState, morselRows int) []morsel {
	var out []morsel
	for _, ts := range tasks {
		if ts.imcu == nil { // fallback and gap tasks
			chunk := rowstore.BlockNo(max(1, morselRows/max(ts.seg.RowsPerBlock(), 1)))
			for b := ts.from; b < ts.to; b += chunk {
				out = append(out, morsel{ts: ts, kind: morselBlocks, lo: int(b), hi: int(min(b+chunk, ts.to))})
			}
			continue
		}
		if ts.decision == DecisionScan {
			for lo := 0; lo < ts.rows; lo += morselRows {
				out = append(out, morsel{ts: ts, kind: morselIMCURows, lo: lo, hi: min(lo+morselRows, ts.rows)})
			}
		}
		out = append(out, invalidMorsels(ts, morselRows)...)
		out = append(out, morsel{ts: ts, kind: morselTail})
	}
	return out
}

// invalidMorsels splits the unit's SMU-invalidated row re-reads into row
// windows, skipping windows with no invalid bit. Word-aligned windows keep
// the bitmap walk trivially partitionable.
func invalidMorsels(ts *taskState, morselRows int) []morsel {
	if len(ts.invalid) == 0 {
		return nil
	}
	window := (max(morselRows, 64) + 63) / 64 * 64
	var out []morsel
	for lo := 0; lo < ts.rows; lo += window {
		hi := min(lo+window, ts.rows)
		live := uint64(0)
		for w := lo / 64; w < (hi+63)/64 && w < len(ts.invalid); w++ {
			live |= ts.invalid[w]
		}
		if live != 0 {
			out = append(out, morsel{ts: ts, kind: morselInvalid, lo: lo, hi: hi})
		}
	}
	return out
}

// runMorselOn executes a morsel into res and returns its wall nanos (zero
// when not profiling, keeping time calls off the unprofiled hot path); when
// the profile's tree is wanted it attributes the morsel's counter deltas and
// wall time to the owning task.
func (ex *Executor) runMorselOn(q *Query, schema *rowstore.Schema, m morsel, snap scn.SCN, res *taskResult, profiling profileLevel) int64 {
	before, start := res.cnt, time.Time{}
	if profiling != profNone {
		start = time.Now()
	}
	res.curPart = m.ts.part
	if m.kind == morselIMCURows {
		ex.scanIMCUWindow(q, schema, m.ts, m.lo, m.hi, res)
	} else {
		ex.scanRows(q, schema, m, snap, res)
	}
	if profiling == profNone {
		return 0
	}
	wall := time.Since(start).Nanoseconds()
	if ts := m.ts; profiling == profTree {
		for i, v := range res.cnt {
			ts.pCounts[i].Add(v - before[i])
		}
		ts.pWall.Add(wall)
		ts.pMorsels.Add(1)
	}
	return wall
}

// morselDeque is one worker's double-ended work queue. The owner pops from
// the back; thieves steal half from the front. Morsels are coarse (thousands
// of rows), so a mutex per operation is far below noise.
type morselDeque struct {
	mu    sync.Mutex
	items []morsel
}

func (d *morselDeque) popBack() (morsel, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return morsel{}, false
	}
	m := d.items[n-1]
	d.items = d.items[:n-1]
	return m, true
}

func (d *morselDeque) push(ms ...morsel) {
	d.mu.Lock()
	d.items = append(d.items, ms...)
	d.mu.Unlock()
}

// stealHalf removes up to half of the deque (at least one morsel) from the
// front and returns it.
func (d *morselDeque) stealHalf() []morsel {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return nil
	}
	k := (n + 1) / 2
	got := make([]morsel, k)
	copy(got, d.items[:k])
	d.items = d.items[k:]
	return got
}

// xorshift64 is the deterministic per-worker victim selector; workers must
// not share a rand source (lock contention) and must not agree on victims
// (convoying).
func xorshift64(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// stealInto scans the other workers' deques starting at a random victim,
// moves half of the first non-empty one into w's deque, and returns one
// morsel to run. A full sweep finding nothing means every remaining morsel is
// in flight on some worker, so the caller can retire.
func stealInto(deques []*morselDeque, w int, rng *uint64, st *WorkerProfile) (morsel, bool) {
	n := len(deques)
	off := int(xorshift64(rng) % uint64(n))
	for k := 0; k < n; k++ {
		v := (off + k) % n
		if v == w {
			continue
		}
		got := deques[v].stealHalf()
		if len(got) == 0 {
			continue
		}
		st.Steals += int64(len(got))
		if len(got) > 1 {
			deques[w].push(got[1:]...)
		}
		return got[0], true
	}
	return morsel{}, false
}

// runMorsels executes the planned morsels on `workers` goroutines (inline
// when workers <= 1) and returns the merged operator state plus per-worker
// scheduling stats. Initial placement follows each task's affinity hint; load
// balance comes from stealing.
func (ex *Executor) runMorsels(q *Query, plan *queryPlan, schema *rowstore.Schema, morsels []morsel, workers int, snap scn.SCN, profiling profileLevel, ordered bool) (*taskResult, []WorkerProfile) {
	if workers <= 1 {
		res := newTaskResult(q, plan, schema, ordered)
		ws := make([]WorkerProfile, 1)
		for _, m := range morsels {
			ws[0].BusyNanos += ex.runMorselOn(q, schema, m, snap, res, profiling)
		}
		ws[0].Morsels = int64(len(morsels))
		res.release()
		return res, ws
	}
	deques := make([]*morselDeque, workers)
	for i := range deques {
		deques[i] = &morselDeque{}
	}
	for _, m := range morsels {
		w := m.ts.affinity % workers
		deques[w].items = append(deques[w].items, m)
	}
	results := make([]*taskResult, workers)
	ws := make([]WorkerProfile, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		results[w] = newTaskResult(q, plan, schema, ordered)
		ws[w].Worker = w
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := results[w]
			defer res.release()
			st := &ws[w]
			rng := uint64(w)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
			for {
				m, ok := deques[w].popBack()
				if !ok {
					m, ok = stealInto(deques, w, &rng, st)
					if !ok {
						return
					}
				}
				st.BusyNanos += ex.runMorselOn(q, schema, m, snap, res, profiling)
				st.Morsels++
			}
		}(w)
	}
	wg.Wait()
	// Worker 0's partial is the merge target: the others fold into it.
	for _, r := range results[1:] {
		results[0].merge(r)
	}
	return results[0], ws
}

// scanIMCUWindow is the columnar path over one morsel's row window [lo, hi):
// batched evaluation over the compressed columns, honoring the presence
// bitmap and the SMU's invalidity bitmap. Batches stay aligned to batchSize
// (the match bitmap's word indexing depends on it); the window mask clips the
// first and last partial batch, so morsel boundaries can fall anywhere.
func (ex *Executor) scanIMCUWindow(q *Query, schema *rowstore.Schema, ts *taskState, lo, hi int, res *taskResult) {
	imcu, invalid, rows := ts.imcu, ts.invalid, ts.rows
	present, match := imcu.PresentWords(), res.s.match
	var none bool
	if res.s.filters, none = resolveFilters(res.s.filters, schema, imcu, q.Filters); none {
		return
	}
	res.op.beginUnit(imcu)
	win := &res.s.window
	win.imcu, win.aux = imcu, res.s.aux
	for base := lo - lo%batchSize; base < hi; base += batchSize {
		n := min(rows-base, batchSize)
		wLo, wHi := max(lo-base, 0), min(hi-base, n)
		words, w0 := (n+63)/64, base/64
		for w := 0; w < words; w++ {
			m := present[w0+w] &^ invalid[w0+w]
			if w == words-1 && n%64 != 0 {
				m &= (1 << (n % 64)) - 1
			}
			match[w] = m
		}
		if imcs.MaskOutsideRange(match, wLo, wHi, n) == 0 {
			continue
		}
		res.cnt[cBatches]++
		// Each filter is compared in code space on the packed words, over the
		// 64-row groups the filters before it left a row in.
		for _, f := range res.s.filters {
			if f.str {
				imcu.StrCol(f.slot).CmpMask(match, base, n, f.cmp)
			} else {
				imcu.NumCol(f.slot).CmpMask(match, base, n, f.cmp)
			}
		}
		if matched := imcs.PopcountRange(match, 0, n); matched != 0 {
			res.cnt[cIMCS] += matched
			win.base, win.n = base, n
			res.op.fold(res, win, match[:words])
		}
	}
}
