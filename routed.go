package dbimadg

import (
	"fmt"
	"strings"
	"sync/atomic"

	"dbimadg/internal/fleet"
	"dbimadg/internal/router"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/sqlmini"
)

// Typed routing errors (one source of truth in internal/fleet; errors.Is
// matches across every layer that re-exports them).
var (
	// ErrNoReader: no standby reader can serve the request — the fleet is
	// empty (e.g. after a failover consumed the standby), no reader is Ready,
	// or none meets the freshness / read-your-writes bound within the wait.
	ErrNoReader = fleet.ErrNoReader
	// ErrOverloaded: admission control shed the scan — every eligible reader
	// is at its concurrent-scan limit with a full queue, or the queue
	// deadline expired.
	ErrOverloaded = fleet.ErrOverloaded
)

// FleetSpec declares the reader-fleet shape (see fleet.Spec).
type FleetSpec = fleet.Spec

// RouterOptions constrain a routed session's placements (see router.Options).
type RouterOptions = router.Options

// FleetReader is one fleet reader standby.
type FleetReader = fleet.Reader

// RoutedSession is a read-only session placed through the fleet router: every
// query is routed to a Ready fleet reader satisfying the session's service,
// freshness bound, and read-your-writes token, under that reader's admission
// control. Unlike StandbySession it degrades explicitly — ErrOverloaded when
// the fleet is saturated, ErrNoReader when no reader qualifies — instead of
// queueing without bound.
//
// Read-your-writes: after a primary commit, hand the returned SCN to
// SetToken; every subsequent query is then served at a snapshot at or past
// it, across routing, reader removal, and switchover. A RoutedSession is safe
// for concurrent use.
type RoutedSession struct {
	c    *Cluster
	opts router.Options

	token    atomic.Uint64 // RYW floor, monotone
	lastSnap atomic.Uint64 // highest snapshot a query has read at, monotone
}

// RoutedSession opens a router-placed session. The zero Options route via the
// standby-only service with no freshness bound and the default bounded wait.
func (c *Cluster) RoutedSession(opts RouterOptions) *RoutedSession {
	return &RoutedSession{c: c, opts: opts}
}

// SetToken raises the session's read-your-writes floor to t (typically the
// SCN a primary commit returned). Lower values are ignored: the floor is
// monotone, so tokens from several commits compose.
func (s *RoutedSession) SetToken(t SCN) { raise(&s.token, uint64(t)) }

// raise lifts v to at least x; concurrent raises keep the highest.
func raise(v *atomic.Uint64, x uint64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// Token returns the session's current read-your-writes floor.
func (s *RoutedSession) Token() SCN { return scn.SCN(s.token.Load()) }

// LastSnapshot returns the highest snapshot SCN the session's queries have
// read at (0 before the first). Never below the token at the time of that
// query — the read-your-writes guarantee, asserted by tests.
func (s *RoutedSession) LastSnapshot() SCN { return scn.SCN(s.lastSnap.Load()) }

// place routes one scan through the cluster's current router, folding the
// session's floor into the placement constraints: its read-your-writes token
// and, for monotonic reads, the snapshot its queries have read at — a reader
// below it, or a drain that moves the session to one, would show it the past.
func (s *RoutedSession) place() (*router.Placement, error) {
	s.c.mu.Lock()
	rtr := s.c.rtr
	s.c.mu.Unlock()
	if rtr == nil {
		return nil, ErrNoReader
	}
	opts := s.opts
	if floor := scn.SCN(max(s.token.Load(), s.lastSnap.Load())); floor > opts.Token {
		opts.Token = floor
	}
	return rtr.Place(opts)
}

// Query executes a scan on a routed fleet reader at that reader's published
// QuerySCN (>= the session's token).
func (s *RoutedSession) Query(q *Query) (*Result, error) {
	p, err := s.place()
	if err != nil {
		return nil, err
	}
	defer p.Release()
	master := s.c.StandbyMaster()
	// The reader's QuerySCN is monotone, so it still satisfies the floor the
	// placement was checked against. The reader keeps it pinned, but moves its
	// pin on at each publication, and a lagging reader's QuerySCN can be below
	// the snapshot of an image the master replaces: a reclaim between the read
	// and the pin can pass it. The reader's next QuerySCN is pinned again.
	snaps := rowstore.SnapshotsOf(master.Txns())
	snap := p.Reader.QuerySCN()
	for snaps.Pin(snap) != nil {
		snap = p.Reader.QuerySCN()
	}
	defer snaps.Unpin(snap)
	raise(&s.lastSnap, uint64(snap))
	ex := newExec(master.Txns(), p.Reader.Store())
	ex.Obs = master.ScanStats()
	return ex.Run(q, snap)
}

// QuerySQL parses and executes a SELECT against tbl on a routed fleet reader
// (the same SQL subset as Session.QuerySQL).
func (s *RoutedSession) QuerySQL(tbl *Table, sql string, binds map[string]Bind) (*Result, error) {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, err
	}
	if st.Explain {
		return nil, fmt.Errorf("dbimadg: EXPLAIN statements return a plan, not rows")
	}
	if !strings.EqualFold(st.TableName, tbl.Name) {
		return nil, fmt.Errorf("sqlmini: statement targets %q, got table %q", st.TableName, tbl.Name)
	}
	q, err := st.Compile(tbl, binds)
	if err != nil {
		return nil, err
	}
	return s.Query(q)
}
