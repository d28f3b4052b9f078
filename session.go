package dbimadg

import (
	"fmt"
	"runtime"
	"strings"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/sqlmini"
	"dbimadg/internal/standby"
)

// tuneExec applies the deployment's scan-executor knobs (morsel granule and
// default parallelism) to a freshly built executor. Executors bound to a
// standby instance inherit that instance's resolved tuning; primary-side
// executors resolve the root Config directly (GOMAXPROCS default, negative
// ScanParallel forces serial).
func (c *Cluster) tuneExec(ex *scanengine.Executor, inst *standby.Instance) *scanengine.Executor {
	if inst != nil {
		ex.MorselRows, ex.DefaultParallel = inst.ScanTuning()
		return ex
	}
	ex.MorselRows = c.cfg.ScanMorselRows
	switch {
	case c.cfg.ScanParallel > 0:
		ex.DefaultParallel = c.cfg.ScanParallel
	case c.cfg.ScanParallel < 0:
		ex.DefaultParallel = 1
	default:
		ex.DefaultParallel = runtime.GOMAXPROCS(0)
	}
	return ex
}

// Session executes transactions and queries against one side of the
// deployment. Primary sessions are read-write; standby sessions are
// read-only (they query at the published QuerySCN, like any ADG client).
// A Session is safe for concurrent use; each transaction it begins is not.
type Session struct {
	c        *Cluster
	primary  bool
	instance int
	exec     *scanengine.Executor
	snap     func() scn.SCN
	// record, when set, receives the profile of every executed query (the
	// standby's query log / slow-query log / latency histograms).
	record func(*scanengine.Profile)
}

// PrimarySession opens a session against primary instance i. After a role
// transition, the session targets the promoted node: transactions run on the
// promoted cluster and queries scan the RETAINED standby column store — the
// warm-IMCS payoff of the broker's promotion.
func (c *Cluster) PrimarySession(i int) *Session {
	c.mu.Lock()
	pri, promoted := c.pri, c.promoted
	c.mu.Unlock()
	if promoted != nil {
		ex := c.tuneExec(scanengine.NewExecutor(pri.Txns(), promoted.Store()), promoted)
		ex.Obs = promoted.ScanStats()
		return &Session{
			c: c, primary: true, instance: i,
			exec:   ex,
			snap:   pri.Snapshot,
			record: promoted.RecordQuery,
		}
	}
	return &Session{
		c: c, primary: true, instance: i,
		exec: c.tuneExec(scanengine.NewExecutor(pri.Txns(), c.priStore), nil),
		snap: pri.Snapshot,
	}
}

// StandbySession opens a read-only session against the standby. With a
// standby RAC, queries behave like parallel queries spanning all instances'
// column stores, at the master's QuerySCN. After a failover (no standby
// remains), the session serves read-only queries against the promoted node at
// live primary snapshots; after a switchover it targets the rebuilt standby.
func (c *Cluster) StandbySession() *Session {
	c.mu.Lock()
	sby, pri, promoted := c.sby, c.pri, c.promoted
	c.mu.Unlock()
	if sby == promoted {
		return c.standbySession(sby, pri.Snapshot)
	}
	return c.standbySession(sby, sby.QuerySCN)
}

// standbySession builds a read-only session over the standby master's replica
// and every column store a scan at its QuerySCN spans (the master's and the
// home-share readers'; after a failover only the promoted master's remains).
func (c *Cluster) standbySession(sby *standby.Instance, snap func() scn.SCN) *Session {
	ex := c.tuneExec(scanengine.NewExecutor(sby.Txns(), c.flt.Stores()...), sby)
	ex.Obs = sby.ScanStats()
	return &Session{c: c, exec: ex, snap: snap, record: sby.RecordQuery}
}

// StandbyReaderSession opens a session against one standby RAC reader
// instance: queries run at that instance's locally published QuerySCN and
// still reach all instances' column stores (parallel query slaves).
func (c *Cluster) StandbyReaderSession(i int) (*Session, error) {
	readers := c.flt.ShareReaders()
	if i < 0 || i >= len(readers) {
		// Typed: after a failover the promoted node serves all ranges itself
		// and the reader set is empty, so callers match with errors.Is.
		return nil, fmt.Errorf("dbimadg: standby reader %d: %w", i, ErrNoReader)
	}
	return c.standbySession(c.StandbyMaster(), readers[i].QuerySCN), nil
}

// ReadOnly reports whether the session is bound to the standby.
func (s *Session) ReadOnly() bool { return !s.primary }

// Begin starts a read-write transaction; it fails on standby sessions
// (the standby is open read-only).
func (s *Session) Begin() (*Txn, error) {
	if !s.primary {
		return nil, fmt.Errorf("dbimadg: standby database is read-only")
	}
	return s.c.Primary().Instance(s.instance).Begin(), nil
}

// Snapshot returns the session's current Consistent Read snapshot: the
// commit-gated current SCN on the primary, the published QuerySCN on the
// standby.
func (s *Session) Snapshot() SCN { return s.snap() }

// Query executes a scan at the session's current snapshot.
func (s *Session) Query(q *Query) (*Result, error) {
	return s.runLogged(q, s.snap(), "")
}

// QueryAt executes a scan at an explicit snapshot (for example a previously
// captured Snapshot(), to run several consistent queries).
func (s *Session) QueryAt(q *Query, at SCN) (*Result, error) {
	return s.runLogged(q, at, "")
}

// QueryProfiled executes a scan and returns its EXPLAIN ANALYZE profile
// alongside the result.
func (s *Session) QueryProfiled(q *Query) (*Result, *ScanProfile, error) {
	return s.runQuery(q, s.snap(), "")
}

// runQuery executes a scan whose caller asked for its profile: the whole
// EXPLAIN ANALYZE document, which a session with a query-log hook (a standby
// session) also records.
func (s *Session) runQuery(q *Query, at SCN, sql string) (*Result, *ScanProfile, error) {
	res, prof, err := s.exec.RunProfiled(q, at)
	if err != nil {
		return nil, nil, err
	}
	prof.SQL = sql
	if s.record != nil {
		s.record(prof)
	}
	return res, prof, nil
}

// runLogged executes a scan nobody asked to explain. A session with a
// query-log hook records the profile's totals — times, paths, row counts; the
// per-task tree is built only for a caller that wants to read it — and one
// without runs unprofiled.
func (s *Session) runLogged(q *Query, at SCN, sql string) (*Result, error) {
	if s.record == nil {
		return s.exec.Run(q, at)
	}
	res, prof, err := s.exec.RunTotals(q, at)
	if err != nil {
		return nil, err
	}
	prof.SQL = sql
	s.record(prof)
	return res, nil
}

// Explain plans a query at the session's current snapshot without executing
// it: partition pruning decisions plus the per-IMCU verdict (scan, min-max or
// dictionary prune, row-store fallback) the scan would reach.
func (s *Session) Explain(q *Query) (*ScanProfile, error) {
	return s.exec.Explain(q, s.snap())
}

// ExplainAnalyze executes a query at the session's current snapshot and
// returns the plan with actuals: per-path row counts, predicate-evaluation
// batches, and per-task wall times.
func (s *Session) ExplainAnalyze(q *Query) (*ScanProfile, error) {
	_, prof, err := s.runQuery(q, s.snap(), "")
	return prof, err
}

// FetchByID performs an index point-read of the row with the given identity
// key at the session's snapshot. The Row is the caller's: a copy that shares
// nothing with the row store's image.
func (s *Session) FetchByID(tbl *Table, id int64) (Row, bool, error) {
	idx := tbl.Index()
	if idx == nil {
		return Row{}, false, fmt.Errorf("dbimadg: table %q has no identity index", tbl.Name)
	}
	rid, ok := idx.Get(id)
	if !ok {
		return Row{}, false, nil
	}
	db := s.c.Primary().DB()
	view := s.c.Primary().Txns()
	if !s.primary {
		m := s.c.StandbyMaster()
		db = m.DB()
		view = m.Txns()
	}
	seg, ok := db.Segment(rid.DBA.Obj())
	if !ok {
		return Row{}, false, fmt.Errorf("dbimadg: no segment %d", rid.DBA.Obj())
	}
	blk := seg.Block(rid.DBA.Block())
	if blk == nil {
		return Row{}, false, nil
	}
	at := s.snap()
	snaps := rowstore.SnapshotsOf(view)
	if err := snaps.Pin(at); err != nil {
		return Row{}, false, fmt.Errorf("dbimadg: fetch at SCN %d: %w", at, err)
	}
	defer snaps.Unpin(at)
	img, ok := blk.ReadRow(rid.Slot, at, view, scn.InvalidTxn)
	return img.Row(), ok, nil
}

// StoreStats is re-exported for observability.
type StoreStats = imcs.StoreStats

// Bind is a SQL bind-variable value.
type Bind = sqlmini.Bind

// NumBind builds a numeric bind value.
func NumBind(v int64) Bind { return sqlmini.NumBind(v) }

// StrBind builds a string bind value.
func StrBind(v string) Bind { return sqlmini.StrBind(v) }

// QuerySQL parses and executes a SELECT against tbl at the session's current
// snapshot. The supported subset covers the paper's workload: SELECT */cols/
// aggregates FROM t WHERE col op literal [AND ...] [GROUP BY cols], with
// :name binds, e.g. Table 1's "SELECT * FROM C101 WHERE n1 = :1". Grouped
// statements such as "SELECT c1, COUNT(*), SUM(n1) FROM t GROUP BY c1"
// return their groups in Result.Grouped, in deterministic key order.
// EXPLAIN-prefixed statements are rejected — use ExplainSQL for those.
func (s *Session) QuerySQL(tbl *Table, sql string, binds map[string]Bind) (*Result, error) {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, err
	}
	if st.Explain {
		return nil, fmt.Errorf("dbimadg: EXPLAIN statements return a plan, not rows; use ExplainSQL")
	}
	q, err := compileStatement(st, tbl, binds)
	if err != nil {
		return nil, err
	}
	return s.runLogged(q, s.snap(), sql)
}

// ExplainSQL handles "EXPLAIN SELECT ..." (plan only, no execution) and
// "EXPLAIN ANALYZE SELECT ..." (execute and report actuals) against tbl at
// the session's current snapshot. A bare SELECT is treated as EXPLAIN.
// Render the returned profile with its String method, or serialize it as
// JSON (the /debug/queries representation).
func (s *Session) ExplainSQL(tbl *Table, sql string, binds map[string]Bind) (*ScanProfile, error) {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, err
	}
	q, err := compileStatement(st, tbl, binds)
	if err != nil {
		return nil, err
	}
	if st.Analyze {
		_, prof, err := s.runQuery(q, s.snap(), sql)
		return prof, err
	}
	prof, err := s.exec.Explain(q, s.snap())
	if err != nil {
		return nil, err
	}
	prof.SQL = sql
	return prof, nil
}

// compileStatement resolves a parsed statement against tbl, checking the
// table name matches.
func compileStatement(st *sqlmini.Statement, tbl *Table, binds map[string]Bind) (*Query, error) {
	if !strings.EqualFold(st.TableName, tbl.Name) {
		return nil, fmt.Errorf("sqlmini: statement targets %q, got table %q", st.TableName, tbl.Name)
	}
	return st.Compile(tbl, binds)
}
