package chaos

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbimadg/internal/obs"
	"dbimadg/internal/primary"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/standby"
	"dbimadg/internal/testutil"
)

// oracle checks the harness's global invariants. Every check compares the
// system against an independent ground truth — the primary's row-store
// consistent read and the standby's own pure row-store scan — so a silent
// corruption anywhere in the mine/journal/flush/publish pipeline surfaces as
// a divergence here, not as a hang or a crash somewhere else.
type oracle struct {
	r      *Runner
	sbyTbl *rowstore.Table
}

// canonScan runs a full or filtered scan in deterministic RowID order and
// canonicalizes the result into a row-key string, so two scans are equal iff
// they returned exactly the same rows. Physical redo apply preserves block
// and slot addresses, so the primary CR and the standby agree on the order
// too — no re-sorting needed.
func canonScan(ex *scanengine.Executor, tbl *rowstore.Table, snap scn.SCN, filters ...scanengine.Filter) (string, int, error) {
	res, err := ex.Run(&scanengine.Query{Table: tbl, Filters: filters, OrderByRowID: true}, snap)
	if err != nil {
		return "", 0, err
	}
	s := tbl.Schema()
	keys := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		keys = append(keys, fmt.Sprintf("%d:%d:%s", row.Num(s, 0), row.Num(s, 1), row.Str(s, 2)))
	}
	return strings.Join(keys, ";"), len(res.Rows), nil
}

// canonGroups runs a grouped aggregate — GROUP BY c1 with COUNT(*), SUM,
// MIN and MAX over n1 — and canonicalizes the groups. Group order is already
// deterministic, so the strings compare directly.
func canonGroups(ex *scanengine.Executor, tbl *rowstore.Table, snap scn.SCN) (string, error) {
	res, err := ex.Run(&scanengine.Query{
		Table: tbl,
		Aggs: []scanengine.AggSpec{
			{Kind: scanengine.AggCount},
			{Kind: scanengine.AggSum, Col: 1},
			{Kind: scanengine.AggMin, Col: 1},
			{Kind: scanengine.AggMax, Col: 1},
		},
		GroupBy: []int{2},
	}, snap)
	if err != nil {
		return "", err
	}
	parts := make([]string, 0, len(res.Grouped.Groups))
	for _, g := range res.Grouped.Groups {
		parts = append(parts, fmt.Sprintf("%s=%d:%v", g.Keys[0], g.Count, g.Vals))
	}
	return strings.Join(parts, ";"), nil
}

// diffKeys renders a compact description of the rows present in one canonical
// scan but not the other, for failure messages.
func diffKeys(a, b string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, k := range strings.Split(s, ";") {
			if k != "" {
				m[k] = true
			}
		}
		return m
	}
	am, bm := in(a), in(b)
	var onlyA, onlyB []string
	for k := range am {
		if !bm[k] {
			onlyA = append(onlyA, k)
		}
	}
	for k := range bm {
		if !am[k] {
			onlyB = append(onlyB, k)
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	const cap = 8
	if len(onlyA) > cap {
		onlyA = append(onlyA[:cap], "...")
	}
	if len(onlyB) > cap {
		onlyB = append(onlyB[:cap], "...")
	}
	return fmt.Sprintf("only-in-first=%v only-in-second=%v", onlyA, onlyB)
}

func (o *oracle) table() (*rowstore.Table, error) {
	if o.sbyTbl != nil {
		return o.sbyTbl, nil
	}
	tbl, err := o.r.sby.DB().Table(1, "C101")
	if err != nil {
		return nil, err
	}
	o.sbyTbl = tbl
	return tbl, nil
}

// liveProbe runs the three-way equivalence check at whatever QuerySCN the
// standby currently publishes, while writers and apply keep running — the
// paper's central claim is exactly that a scan at a published QuerySCN is
// consistent without quiescing anything.
func (o *oracle) liveProbe() error {
	r := o.r
	q := r.sby.QuerySCN()
	if q == 0 {
		return nil // nothing published yet
	}
	tbl, err := o.table()
	if err != nil {
		return nil // replication of the CREATE TABLE marker still in flight
	}
	// Three scans at one SCN under live writers: the probe holds the snapshot,
	// or a repopulation may reclaim versions the later ones read.
	snaps := rowstore.SnapshotsOf(r.sby.Txns())
	if snaps.Pin(q) != nil {
		return nil // reclaimed between the read and the pin
	}
	defer snaps.Unpin(q)
	r.res.Checks++

	hybrid := r.newExec(r.sby.Txns(), r.flt.Stores()...)
	pure := r.newExec(r.sby.Txns())
	pri := r.newExec(r.pri.Txns())

	h, _, err := canonScan(hybrid, tbl, q)
	if err != nil {
		return r.fail("live hybrid scan at %d: %v", q, err)
	}
	p, _, err := canonScan(pure, tbl, q)
	if err != nil {
		return r.fail("live row-store scan at %d: %v", q, err)
	}
	if h != p {
		return r.fail("live scans diverge at QuerySCN %d (hybrid vs standby row store): %s",
			q, diffKeys(h, p))
	}
	g, _, err := canonScan(pri, r.tbl, q)
	if err != nil {
		return r.fail("live primary CR scan at %d: %v", q, err)
	}
	if h != g {
		return r.fail("live scans diverge at QuerySCN %d (standby vs primary CR): %s",
			q, diffKeys(h, g))
	}
	return nil
}

// quiesceCheck runs the full invariant suite once the standby has caught up
// with the primary and no writer is in flight.
func (o *oracle) quiesceCheck() error {
	r := o.r
	tbl, err := o.table()
	if err != nil {
		return r.fail("standby table missing at quiesce: %v", err)
	}
	r.res.Checks++

	// (3) Journal / commit-table coherence: with every transaction resolved
	// and applied, both structures must drain (flush and QuerySCN advancement
	// run on millisecond timers, so poll briefly).
	if !testutil.WaitFor(10*time.Second, 0, func() bool {
		st := r.sby.Stats()
		return st.JournalTxns == 0 && st.CommitTablePend == 0
	}) {
		return r.fail("journal/commit table did not drain at quiesce: %+v", r.sby.Stats())
	}

	if !r.settlePopulation(20 * time.Second) {
		return r.fail("population did not settle at quiesce: %+v", r.sby.Engine().Stats())
	}

	// (1) Equivalence at the published QuerySCN, full scan: standby hybrid
	// (IMCS + SMU + journal + row store, over the master's store and every
	// home-share reader's: they are acknowledged before the master publishes),
	// standby pure row store, primary CR.
	q := r.sby.QuerySCN()
	stores := r.flt.Stores()
	hybrid := r.newExec(r.sby.Txns(), stores...)
	pure := r.newExec(r.sby.Txns())
	pri := r.newExec(r.pri.Txns())

	res, prof, err := hybrid.RunProfiled(&scanengine.Query{Table: tbl, OrderByRowID: true}, q)
	if err != nil {
		return r.fail("quiesce hybrid scan at %d: %v", q, err)
	}
	s := tbl.Schema()
	keys := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		keys = append(keys, fmt.Sprintf("%d:%d:%s", row.Num(s, 0), row.Num(s, 1), row.Str(s, 2)))
	}
	h := strings.Join(keys, ";")

	p, _, err := canonScan(pure, tbl, q)
	if err != nil {
		return r.fail("quiesce row-store scan at %d: %v", q, err)
	}
	if h != p {
		return r.fail("scans diverge at QuerySCN %d (hybrid vs standby row store): %s",
			q, diffKeys(h, p))
	}
	g, _, err := canonScan(pri, r.tbl, q)
	if err != nil {
		return r.fail("quiesce primary CR scan at %d: %v", q, err)
	}
	if h != g {
		return r.fail("scans diverge at QuerySCN %d (standby vs primary CR): %s",
			q, diffKeys(h, g))
	}

	// Profile cross-check: the four serving paths partition the result set,
	// and after population settled the IMCS must actually serve rows (unless
	// the run keeps its store stale: then a unit may have gone all invalid).
	sum := prof.RowsIMCS + prof.RowsInvalid + prof.RowsTail + prof.RowsRowStore
	if prof.ResultRows != sum {
		return r.fail("profile paths do not partition the result at %d: rows=%d imcs=%d invalid=%d tail=%d rowstore=%d",
			q, prof.ResultRows, prof.RowsIMCS, prof.RowsInvalid, prof.RowsTail, prof.RowsRowStore)
	}
	if prof.ResultRows != int64(len(res.Rows)) {
		return r.fail("profile result rows %d != scan rows %d", prof.ResultRows, len(res.Rows))
	}
	r.res.HybridRowBlocks += prof.RowBlocks
	r.res.HybridRowsDelta += prof.RowsDelta
	if prof.RowsIMCS == 0 && !r.opts.StaleStore {
		return r.fail("settled IMCS served no rows at %d (profile %+v, store %+v)",
			q, prof, r.sby.Store().Stats())
	}

	// Filtered and aggregate equivalence between the hybrid path and the
	// primary CR — predicates and pushed-down aggregates take different code
	// paths through the IMCU than full materialization.
	for _, color := range colors {
		fh, nh, err := canonScan(hybrid, tbl, q, scanengine.EqStr(2, color))
		if err != nil {
			return r.fail("filtered hybrid scan at %d: %v", q, err)
		}
		fg, ng, err := canonScan(pri, r.tbl, q, scanengine.EqStr(2, color))
		if err != nil {
			return r.fail("filtered primary scan at %d: %v", q, err)
		}
		if fh != fg {
			return r.fail("filtered scans (c1=%q) diverge at %d (%d vs %d rows): %s",
				color, q, nh, ng, diffKeys(fh, fg))
		}
	}
	ha, err := hybrid.Run(&scanengine.Query{Table: tbl, Aggs: []scanengine.AggSpec{{Kind: scanengine.AggSum, Col: 1}}}, q)
	if err != nil {
		return r.fail("hybrid SUM at %d: %v", q, err)
	}
	ga, err := pri.Run(&scanengine.Query{Table: r.tbl, Aggs: []scanengine.AggSpec{{Kind: scanengine.AggSum, Col: 1}}}, q)
	if err != nil {
		return r.fail("primary SUM at %d: %v", q, err)
	}
	if ha.Sum != ga.Sum {
		return r.fail("SUM(n1) diverges at %d: standby %d, primary %d", q, ha.Sum, ga.Sum)
	}

	// Grouped-aggregate equivalence: the hash GROUP BY folds encoded runs,
	// decoded batches and row-store fallbacks into per-group accumulators —
	// all three executors must emit identical groups, group for group.
	hg, err := canonGroups(hybrid, tbl, q)
	if err != nil {
		return r.fail("hybrid GROUP BY at %d: %v", q, err)
	}
	pg, err := canonGroups(pure, tbl, q)
	if err != nil {
		return r.fail("row-store GROUP BY at %d: %v", q, err)
	}
	if hg != pg {
		return r.fail("GROUP BY diverges at %d (hybrid vs standby row store): %q vs %q", q, hg, pg)
	}
	gg, err := canonGroups(pri, r.tbl, q)
	if err != nil {
		return r.fail("primary GROUP BY at %d: %v", q, err)
	}
	if hg != gg {
		return r.fail("GROUP BY diverges at %d (standby vs primary CR): %q vs %q", q, hg, gg)
	}

	if err := o.oldSnapshotCheck(hybrid, pri, tbl, q); err != nil {
		return err
	}

	// (4) IMCU coverage: every chunk of every segment must be covered by a
	// unit (populated or placeholder) on exactly one instance — its home —
	// after the engines settled.
	for _, part := range tbl.Partitions() {
		seg := part.Seg
		obj := seg.Obj()
		n := rowstore.BlockNo(seg.BlockCount())
		for start := rowstore.BlockNo(0); start < n; start += blocksPerIMCU {
			hosts := 0
			for _, st := range stores {
				if _, ok := st.UnitForBlock(obj, start); ok {
					hosts++
				}
			}
			if hosts != 1 {
				return r.fail("coverage: obj %d block %d (of %d) has a unit on %d of %d instances after settle",
					obj, start, n, hosts, len(stores))
			}
		}
	}

	// (5) Freshness-span completeness: every commit is traced (sample-every-1),
	// so with the pipeline quiescent at QuerySCN q no sampled commit span at or
	// below q may still be open, and no span may have closed with required
	// pipeline stages missing. Spans interrupted by a crash-restart are
	// explicitly truncated — counted, never leaked.
	return o.freshnessCheck(r.sby, q)
}

// oldSnapshotCheck reads at a random SCN up to 200 below the quiescent
// QuerySCN q: the standby's hybrid scan must answer what the primary's CR
// does there, or refuse with rowstore.ErrSnapshotTooOld where repopulations
// reclaimed the versions it needs. Never a different answer.
func (o *oracle) oldSnapshotCheck(hybrid, pri *scanengine.Executor, tbl *rowstore.Table, q scn.SCN) error {
	r := o.r
	// Drawn off the storm's generator, whose schedule stays the seed's.
	s := q - scn.SCN((uint64(q)*0x9E3779B97F4A7C15^uint64(r.opts.Seed))%uint64(min(q, 201)))
	h, _, err := canonScan(hybrid, tbl, s)
	if errors.Is(err, rowstore.ErrSnapshotTooOld) {
		r.res.OldSnapsRefused++
		return nil
	}
	if err != nil {
		return r.fail("hybrid scan at old snapshot %d: %v", s, err)
	}
	g, _, err := canonScan(pri, r.tbl, s)
	if err != nil {
		return r.fail("primary CR scan at old snapshot %d: %v", s, err)
	}
	if h != g {
		return r.fail("scans diverge at old snapshot %d, QuerySCN %d (standby vs primary CR): %s",
			s, q, diffKeys(h, g))
	}
	r.res.OldSnapsServed++
	return nil
}

// freshnessCheck asserts the complete-span invariant on inst's tracer with
// every commit at or below published visible.
func (o *oracle) freshnessCheck(inst *standby.Instance, published scn.SCN) error {
	r := o.r
	ft := inst.Freshness()
	if ft == nil {
		return r.fail("freshness tracer not attached (chaos runs trace every commit)")
	}
	st := ft.Stats()
	if n := ft.OpenCommitsAtOrBelow(uint64(published)); n != 0 {
		return r.fail("freshness: %d sampled commit spans at or below published SCN %d never closed (%+v)",
			n, published, st)
	}
	if st.Incomplete != 0 {
		return r.fail("freshness: %d spans closed with required pipeline stages missing: %s (%+v)",
			st.Incomplete, gapSpans(ft.Waterfalls(0)), st)
	}
	if st.Completed == 0 {
		return r.fail("freshness: no span completed despite committed workload (%+v)", st)
	}
	for _, sp := range ft.Waterfalls(0) {
		if sp.State == "truncated" && sp.TruncatedWhy == "" {
			return r.fail("freshness: span %d truncated without a reason", sp.SCN)
		}
	}
	r.res.SpansCompleted = st.Completed
	r.res.SpansTruncated = st.Truncated
	return nil
}

// gapSpans renders the retained spans that closed complete without a required
// stage: the SCN and the absent stages of each.
func gapSpans(spans []obs.SpanJSON) string {
	var out []string
	for _, sp := range spans {
		if len(sp.MissingStages) > 0 {
			out = append(out, fmt.Sprintf("scn=%d missing=%v", sp.SCN, sp.MissingStages))
		}
	}
	return strings.Join(out, "; ")
}

// fleetCheck extends the quiesce oracle over the reader fleet: every reader
// must converge to the quiescent master's QuerySCN (they trail asynchronously,
// so this is a bounded wait, not an instant assertion), settle its population,
// and then serve exactly the standby row store's CR view — and the primary's —
// at its own published QuerySCN. Readers provisioned mid-storm must reach
// Ready by the final quiesce like any other.
func (o *oracle) fleetCheck() error {
	r := o.r
	tbl, err := o.table()
	if err != nil {
		return r.fail("standby table missing at fleet check: %v", err)
	}
	if !r.flt.WaitReady(20 * time.Second) {
		return r.fail("fleet did not settle at quiesce: %+v", r.flt.Stats())
	}
	target := r.sby.QuerySCN()
	pure := r.newExec(r.sby.Txns())
	pri := r.newExec(r.pri.Txns())
	for _, rd := range r.flt.Readers() {
		rd := rd
		if !testutil.WaitFor(20*time.Second, 0, func() bool { return rd.QuerySCN() >= target }) {
			return r.fail("fleet reader %d stuck at QuerySCN %d, master at %d (state %v, stats %+v)",
				rd.ID(), rd.QuerySCN(), target, rd.State(), r.flt.Stats())
		}
		rd.Engine().Scan()
		if !rd.Engine().WaitIdle(20 * time.Second) {
			return r.fail("fleet reader %d population did not settle", rd.ID())
		}
		q := rd.QuerySCN()
		hybrid := r.newExec(r.sby.Txns(), rd.Store())
		h, _, err := canonScan(hybrid, tbl, q)
		if err != nil {
			return r.fail("fleet reader %d hybrid scan at %d: %v", rd.ID(), q, err)
		}
		p, _, err := canonScan(pure, tbl, q)
		if err != nil {
			return r.fail("fleet row-store scan at %d: %v", q, err)
		}
		if h != p {
			return r.fail("fleet reader %d diverges from standby row store at QuerySCN %d: %s",
				rd.ID(), q, diffKeys(h, p))
		}
		g, _, err := canonScan(pri, r.tbl, q)
		if err != nil {
			return r.fail("fleet primary CR scan at %d: %v", q, err)
		}
		if h != g {
			return r.fail("fleet reader %d diverges from primary CR at QuerySCN %d: %s",
				rd.ID(), q, diffKeys(h, g))
		}
		if r.midAdded[rd.ID()] {
			delete(r.midAdded, rd.ID())
			r.res.FleetMidAddsReady++
		}
		r.res.FleetChecks++
	}
	return nil
}

// postPromotion validates a role transition: the promoted node's retained
// column store must agree with its row store, new DML must commit past the
// promotion SCN and stay consistent, and after a switchover the rebuilt
// standby must converge on the promoted node's state. It also releases the
// promoted-side resources.
func (o *oracle) postPromotion(newPri *primary.Cluster, promoted scn.SCN, newSb *standby.Instance) error {
	r := o.r
	master := r.sby
	pTbl, err := master.DB().Table(1, "C101")
	if err != nil {
		return r.fail("promoted table missing: %v", err)
	}
	if master.QuerySCN() != promoted {
		return r.fail("promoted QuerySCN %d != terminal recovery SCN %d", master.QuerySCN(), promoted)
	}
	if !master.Engine().WaitIdle(20 * time.Second) {
		return r.fail("post-promotion population did not settle")
	}
	r.res.Checks++

	hybrid := r.newExec(newPri.Txns(), master.Store())
	pure := r.newExec(newPri.Txns())
	check := func(when string) error {
		snap := newPri.Snapshot()
		h, _, err := canonScan(hybrid, pTbl, snap)
		if err != nil {
			return r.fail("%s hybrid scan: %v", when, err)
		}
		p, _, err := canonScan(pure, pTbl, snap)
		if err != nil {
			return r.fail("%s row-store scan: %v", when, err)
		}
		if h != p {
			return r.fail("%s: retained store diverges from row store at %d: %s",
				when, snap, diffKeys(h, p))
		}
		return nil
	}
	if err := check("post-promotion"); err != nil {
		return err
	}

	// Freshness spans survive the transition: terminal recovery published every
	// shipped commit and explicitly truncated the remainder, so the promoted
	// master's tracer must hold no open commit spans at or below the promotion
	// SCN and no gap-ridden completions.
	if err := o.freshnessCheck(master, promoted); err != nil {
		return err
	}

	// New DML on the promoted node: commits advance past the promotion SCN
	// and commit-time maintenance keeps the retained store consistent.
	s := pTbl.Schema()
	tx := newPri.Instance(0).Begin()
	for i := 0; i < 5; i++ {
		row := rowstore.NewRow(s)
		row.Nums[s.Col(0).Slot()] = r.nextID
		row.Nums[s.Col(1).Slot()] = 777
		row.Strs[s.Col(2).Slot()] = colors[int(r.nextID)%len(colors)]
		r.nextID++
		if _, err := tx.Insert(pTbl, row); err != nil {
			return r.fail("promoted insert: %v", err)
		}
	}
	commitSCN, err := tx.Commit()
	if err != nil {
		return r.fail("promoted commit: %v", err)
	}
	if commitSCN <= promoted {
		return r.fail("promoted commit SCN %d not past promotion SCN %d", commitSCN, promoted)
	}
	if err := check("post-promotion-DML"); err != nil {
		return err
	}

	// Switchover: the rebuilt standby applies the promoted node's redo and
	// converges on the same state.
	if newSb != nil {
		target := newPri.Snapshot()
		if !newSb.WaitForSCN(target, 20*time.Second) {
			return r.fail("rebuilt standby stuck: QuerySCN=%d target=%d stats=%+v",
				newSb.QuerySCN(), target, newSb.Stats())
		}
		oldTbl, err := newSb.DB().Table(1, "C101")
		if err != nil {
			return r.fail("rebuilt standby table missing: %v", err)
		}
		q2 := newSb.QuerySCN()
		sbEx := r.newExec(newSb.Txns(), r.flt.Stores()...)
		a, _, err := canonScan(sbEx, oldTbl, q2)
		if err != nil {
			return r.fail("rebuilt standby scan: %v", err)
		}
		b, _, err := canonScan(pure, pTbl, q2)
		if err != nil {
			return r.fail("promoted CR scan at %d: %v", q2, err)
		}
		if a != b {
			return r.fail("rebuilt standby diverges from promoted node at %d: %s", q2, diffKeys(a, b))
		}
		// The rebuilt standby runs its own tracer from the promotion SCN on;
		// the post-promotion DML must have traced end-to-end through it too.
		if err := o.freshnessCheck(newSb, q2); err != nil {
			return err
		}
		newSb.Stop()
	}
	master.Engine().Stop()
	newPri.Close()
	return nil
}

// monitor continuously samples the standby's published QuerySCN, asserting it
// never moves backwards (including across crash-restarts, whose checkpoint is
// at or above the last publication) and never runs ahead of the primary's SCN
// clock.
type monitor struct {
	r     *Runner
	stopC chan struct{}
	done  chan struct{}
	once  sync.Once

	// Restart bracketing: QuerySCN monotonicity is a per-incarnation
	// guarantee (every session dies with the instance), and a checkpoint
	// restore legitimately rolls the published QuerySCN back to the
	// checkpoint SCN while redo catch-up reapplies the gap. crashRestart
	// pauses sampling for the whole teardown-restore-restart window and the
	// epoch bump on resume resets the baseline; a sample that straddles the
	// window sees the epoch change and is discarded as unordered.
	epoch  atomic.Int64
	paused atomic.Bool

	mu        sync.Mutex
	violation error
}

// beginRestart suspends sampling for a planned crash-restart.
func (m *monitor) beginRestart() { m.paused.Store(true) }

// endRestart resumes sampling with a fresh monotonicity baseline.
func (m *monitor) endRestart() { m.epoch.Add(1); m.paused.Store(false) }

func startMonitor(r *Runner) *monitor {
	m := &monitor{r: r, stopC: make(chan struct{}), done: make(chan struct{})}
	go m.loop()
	return m
}

func (m *monitor) loop() {
	defer close(m.done)
	var lastQ scn.SCN
	var lastE int64
	for {
		select {
		case <-m.stopC:
			return
		default:
		}
		if m.paused.Load() {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		e := m.epoch.Load()
		q := m.r.sby.QuerySCN()
		if m.epoch.Load() != e {
			continue // a restart raced this sample; its value is unordered
		}
		if e != lastE {
			lastQ, lastE = 0, e // new incarnation: fresh monotonicity baseline
		}
		if q < lastQ {
			m.set(fmt.Errorf("QuerySCN moved backwards: %d -> %d", lastQ, q))
			return
		}
		lastQ = q
		// Read the primary clock after the QuerySCN: the clock is monotone, so
		// this orders the comparison safely.
		if bound := m.r.pri.Snapshot(); q > bound {
			m.set(fmt.Errorf("standby QuerySCN %d ran ahead of the primary clock %d", q, bound))
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (m *monitor) set(err error) {
	m.mu.Lock()
	m.violation = err
	m.mu.Unlock()
}

func (m *monitor) err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.violation
}

func (m *monitor) stop() {
	m.once.Do(func() { close(m.stopC) })
	<-m.done
}
