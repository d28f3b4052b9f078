package main

import (
	"fmt"
	"math/rand"
	"time"

	"dbimadg"
	"dbimadg/internal/obs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/sqlmini"
	"dbimadg/internal/txn"
	"dbimadg/internal/workload"
)

const (
	tenant    = rowstore.TenantID(1)
	tableName = "C101"
	loadBatch = 512 // rows per load transaction

	// pacedRate is the paper's offered OLTP rate.
	pacedRate = 4000
	// c2vSampleEvery is the freshness tracer's sampling period on the live
	// deployment, the one Config field besides UseTCP that is not left at its
	// default: a single-row transaction takes two SCNs, so every commit SCN is
	// odd and the default period, 16, never samples a commit.
	c2vSampleEvery = 17
	syncWait       = 120 * time.Second
)

// loadRows bulk-inserts identities 0..n-1 in loadBatch-row transactions.
func loadRows(begin func() (*txn.Txn, error), tbl *rowstore.Table, n int, rng *rand.Rand) error {
	schema := tbl.Schema()
	for lo := 0; lo < n; lo += loadBatch {
		tx, err := begin()
		if err != nil {
			return err
		}
		for id := lo; id < min(lo+loadBatch, n); id++ {
			if _, err := tx.Insert(tbl, workload.FillRow(schema, int64(id), rng)); err != nil {
				_ = tx.Abort() // report the insert error, not the abort's
				return fmt.Errorf("load row %d: %w", id, err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			return fmt.Errorf("load commit: %w", err)
		}
	}
	return nil
}

// live is the paper's deployment through the root API: a primary shipping
// redo over loopback TCP to a standby whose column store holds the table.
type live struct {
	c       *dbimadg.Cluster
	tbl     *dbimadg.Table // primary catalog
	sTbl    *dbimadg.Table // standby catalog
	gen     *oltpGen
	setup   time.Duration
	scnMono scnWatch
}

// openLive brings a deployment up to a caught-up standby with the table fully
// populated in its column store, and times that. INMEMORY is enabled after
// the load has been applied, so every run populates the same units.
func openLive(rows int, seed int64, traced bool) (*live, error) {
	start := time.Now()
	cfg := dbimadg.Config{UseTCP: true, FreshnessSampleEvery: c2vSampleEvery}
	if traced {
		cfg.FreshnessSampleEvery = 1
	}
	c, err := dbimadg.Open(cfg)
	if err != nil {
		return nil, err
	}
	l := &live{c: c}
	if err := l.load(rows, seed); err != nil {
		c.Close()
		return nil, err
	}
	l.setup = time.Since(start)
	return l, nil
}

func (l *live) load(rows int, seed int64) error {
	c := l.c
	tbl, err := c.CreateTable(workload.WideTableSpec(tableName, tenant))
	if err != nil {
		return err
	}
	l.tbl = tbl
	sess := c.PrimarySession(0)
	if err := loadRows(sess.Begin, tbl, rows, rand.New(rand.NewSource(seed))); err != nil {
		return err
	}
	if !c.WaitStandbyCaughtUp(syncWait) {
		return fmt.Errorf("live set-up: standby did not catch up with the load")
	}
	attr := dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly}
	if err := c.AlterInMemory(tenant, tableName, "", attr); err != nil {
		return err
	}
	if !c.WaitStandbyCaughtUp(syncWait) || !c.WaitPopulated(syncWait) {
		return fmt.Errorf("live set-up: population did not settle")
	}
	if l.sTbl, err = c.StandbyTable(tenant, tableName); err != nil {
		return err
	}
	l.gen = &oltpGen{
		begin: sess.Begin,
		fetch: func(id int64) error { _, _, err := sess.FetchByID(tbl, id); return err },
		tbl:   tbl, rng: rand.New(rand.NewSource(seed + 1)), nextID: int64(rows),
		insertPct: workload.UpdateInsert.InsertPct, updatePct: workload.UpdateInsert.UpdatePct,
	}
	return nil
}

// backend reaches the standby the way a client does: StandbySession.
func (l *live) backend() *scanBackend {
	sess := l.c.StandbySession()
	return &scanBackend{
		table: l.sTbl,
		query: func(sql string, b binds) (*scanengine.Result, error) { return sess.QuerySQL(l.sTbl, sql, b) },
		profiled: func(q *scanengine.Query) (*scanengine.Result, *scanengine.Profile, error) {
			return sess.QueryProfiled(q)
		},
	}
}

// pureAt scans the standby's row store only (an executor with no column
// store), at a fixed snapshot.
func (l *live) pureAt(at scn.SCN) queryAt {
	ex := scanengine.NewExecutor(l.c.StandbyMaster().Txns())
	return func(sql string, b binds) (*scanengine.Result, error) {
		q, err := sqlmini.ParseAndCompile(sql, l.sTbl, b)
		if err != nil {
			return nil, err
		}
		return ex.Run(q, at)
	}
}

// quiesce waits until the standby has published everything the primary
// committed and returns that QuerySCN.
func (l *live) quiesce() (scn.SCN, error) {
	if !l.c.WaitStandbyCaughtUp(syncWait) {
		return 0, fmt.Errorf("live: standby did not catch up")
	}
	return l.c.StandbyMaster().QuerySCN(), nil
}

// verify is the end-of-run gate on the live deployment.
func (l *live) verify(in *scanInputs) error {
	at, err := l.quiesce()
	if err != nil {
		return err
	}
	sby, pri := l.c.StandbySession(), l.c.PrimarySession(0)
	hybrid := func(sql string, b binds) (*scanengine.Result, error) {
		q, err := sqlmini.ParseAndCompile(sql, l.sTbl, b)
		if err != nil {
			return nil, err
		}
		return sby.QueryAt(q, at)
	}
	primary := func(sql string, b binds) (*scanengine.Result, error) {
		q, err := sqlmini.ParseAndCompile(sql, l.tbl, b)
		if err != nil {
			return nil, err
		}
		return pri.QueryAt(q, at)
	}
	if err := threeWay(hybrid, l.pureAt(at), primary, in); err != nil {
		return err
	}
	if l.scnMono.violations > 0 {
		return fmt.Errorf("live: QuerySCN went back %d times", l.scnMono.violations)
	}
	return nil
}

// oltpStats is what the paced generator observed.
type oltpStats struct {
	span              time.Duration
	attempted, failed int64
	lat               samples // completion minus due time
	late              samples // start minus due time
	c2v               samples
	// c2vSampled counts the commits the standby's freshness tracer sampled;
	// len(c2v) of them were found in its ring of closed spans.
	c2vSampled int64
	c2vEvery   int // the tracer's sampling period, in SCNs
}

// c2vWatch measures commit-to-visible without polling: the start is the
// generator's own clock when Commit() returned, the end is the time the
// standby stamped on the commit's span when it published a QuerySCN covering
// it (obs.FreshnessTracer, which samples every c2vSampleEvery-th SCN and keeps
// the last 512 closed spans). A generator that polled QuerySCN measured its
// own scheduling instead: the Go runtime stretches a sub-millisecond sleep to
// a millisecond on an idle box, and beside a busy scan client the generator
// goroutine waits several milliseconds to run at all.
type c2vWatch struct {
	fr        *obs.FreshnessTracer
	pending   map[uint64]c2vPending // sampled commits not yet matched, by commit SCN
	undrained int
	st        *oltpStats
	tb        *spanBuf
}

// c2vPending is a sampled commit waiting to be matched with its closed span.
type c2vPending struct {
	at   time.Time
	root int
	op   uint64
}

// c2vDrainEvery is how many sampled commits the generator lets pass between
// two reads of the tracer's ring: half the ring, so no span is overwritten
// before it has been read once.
const c2vDrainEvery = obs.DefaultFreshnessRing / 2

// committed notes a commit that returned at at, if the tracer samples it.
func (w *c2vWatch) committed(commit scn.SCN, at time.Time, root int, op uint64) {
	if !w.fr.Sampled(uint64(commit)) {
		return
	}
	w.st.c2vSampled++
	w.pending[uint64(commit)] = c2vPending{at, root, op}
	if w.undrained++; w.undrained >= c2vDrainEvery {
		w.drain()
	}
}

// drain matches pending commits against the tracer's closed spans.
func (w *c2vWatch) drain() {
	w.undrained = 0
	for _, sp := range w.fr.Waterfalls(0) {
		p, ok := w.pending[sp.SCN]
		if !ok || !sp.Commit || sp.ClosedAt == nil || sp.State != obs.SpanComplete.String() {
			continue
		}
		delete(w.pending, sp.SCN)
		w.st.c2v.add(max(sp.ClosedAt.Sub(p.at), 0))
		w.tb.endAt(w.tb.startAt("c2v_wait", p.root, p.op, p.at), *sp.ClosedAt)
	}
}

// runPaced drives the open-loop OLTP client for dur at pacedRate: operation i
// is due at start+i/rate whatever the system does, and its latency runs from
// that due time.
func (l *live) runPaced(dur time.Duration, tb *spanBuf) (*oltpStats, error) {
	st := &oltpStats{c2vEvery: int(l.c.Freshness().SampleEvery())}
	master := l.c.StandbyMaster()
	watch := &c2vWatch{fr: l.c.Freshness(), pending: map[uint64]c2vPending{}, st: st, tb: tb}
	interval := time.Second / pacedRate
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		l.scnMono.observe(master.QuerySCN())
		opID := tb.op()
		root := tb.start("oltp_op", -1, opID)
		opStart := time.Now()
		kind, commit, err := l.gen.op(tb, root, opID)
		end := time.Now()
		tb.endAt(root, end)
		st.attempted++
		if err != nil {
			st.failed++
			continue
		}
		st.late.add(opStart.Sub(due))
		st.lat.add(end.Sub(due))
		if kind != opFetch {
			watch.committed(commit, end, root, opID)
		}
	}
	st.span = time.Since(start)
	// Every commit must become visible; the last sampled ones are latency
	// samples, not part of the measured span.
	if _, err := l.quiesce(); err != nil {
		return nil, err
	}
	watch.drain()
	return st, nil
}
