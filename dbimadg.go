// Package dbimadg is a from-scratch reproduction of "Oracle Database
// In-Memory on Active Data Guard: Real-time Analytics on a Standby Database"
// (Pendse et al., ICDE 2020).
//
// It provides a dual-format database: a multi-versioned row store on a
// primary cluster processing OLTP, replicated to a physical standby via
// SCN-ordered redo and massively parallel redo apply, with In-Memory Column
// Stores (IMCS) maintainable on either side. On the standby, the DBIM-on-ADG
// infrastructure — a mining component piggybacked on the recovery workers, an
// in-memory journal of invalidation records, a commitSCN-ordered commit
// table, and a cooperative invalidation flush tied to QuerySCN advancement —
// keeps the column store transactionally consistent with the primary's OLTP
// stream, so analytic queries offloaded to the standby run against
// compressed, vectorizable columnar data at the published consistency point.
//
// Typical use:
//
//	c, _ := dbimadg.Open(dbimadg.Config{})
//	defer c.Close()
//	tbl, _ := c.CreateTable(&dbimadg.TableSpec{...})
//	_ = c.AlterInMemory(tenant, "SALES", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly})
//	tx := c.PrimarySession(0).Begin()
//	... DML ...
//	tx.Commit()
//	c.WaitStandbyCaughtUp(time.Second)
//	res, _ := c.StandbySession().Query(&dbimadg.Query{Table: standbyTbl, ...})
package dbimadg

import (
	"fmt"
	"net"
	"sync"
	"time"

	"dbimadg/internal/broker"
	"dbimadg/internal/fleet"
	"dbimadg/internal/imcs"
	"dbimadg/internal/obs"
	"dbimadg/internal/primary"
	"dbimadg/internal/redo"
	"dbimadg/internal/router"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
)

// Config describes a deployment: a primary cluster and one standby database
// (optionally a standby RAC), connected by a redo transport.
type Config struct {
	// PrimaryInstances is the primary RAC size (default 1). Above 1, every
	// instance ships a redo heartbeat each millisecond, so a quiet thread
	// never holds back the standby's merge.
	PrimaryInstances int
	// StandbyReaders is the number of non-master standby RAC instances
	// (default 0 = single-instance standby).
	StandbyReaders int
	// RowsPerBlock is the data block row capacity (default 128).
	RowsPerBlock int
	// BlocksPerIMCU is the population chunk size (default 64).
	BlocksPerIMCU int
	// CheckpointInterval is the standby coordinator's heartbeat: the longest it
	// goes without looking for a QuerySCN to advance to (default 2ms). It does
	// not set the advancement cadence: a commit is published as soon as the
	// standby has applied it, and under sustained load advancements are spaced
	// by their own measured cost, by no more than this interval.
	CheckpointInterval time.Duration
	// PopulationInterval is the background population tick (default 10ms).
	PopulationInterval time.Duration
	// MemLimitBytes caps each column store's footprint (0 = unlimited).
	MemLimitBytes int
	// UseTCP ships redo over a loopback TCP connection with the binary wire
	// codec instead of handing streams over in-process.
	UseTCP bool
	// MetricsAddr, when non-empty, serves the standby master's observability
	// endpoints (/metrics, /debug/stats, /debug/trace) on this address;
	// "127.0.0.1:0" binds an ephemeral port (see Cluster.MetricsAddr).
	MetricsAddr string
	// LagSampleInterval, when > 0, samples the standby lag gauges into time
	// series (see standby.Instance.LagSeries).
	LagSampleInterval time.Duration
	// FreshnessSampleEvery traces every Nth SCN end-to-end through the
	// commit-to-visible freshness tracer (default 17; 1 traces every commit,
	// negative disables tracing), and only those SCNs are timed in the
	// per-record pipeline stages. See Cluster.Freshness and /debug/freshness.
	FreshnessSampleEvery int
	// WatchdogInterval is the standby liveness watchdog's evaluation period
	// (default 250ms; negative disables the background evaluation — see
	// Cluster.StandbyWatchdog and /debug/health).
	WatchdogInterval time.Duration
	// WatchdogStallDeadline is how long a pipeline stage may hold a non-empty
	// backlog without progress before the watchdog declares a stall and
	// captures a flight-recorder bundle (default 5s).
	WatchdogStallDeadline time.Duration

	// FleetReaders is the initial number of full-copy reader standbys in the
	// declaratively managed fleet (default 0 = empty fleet; scale later with
	// Cluster.ApplyFleet). Fleet readers trail the master asynchronously and
	// serve RoutedSession queries; they are distinct from StandbyReaders,
	// which are synchronous RAC share-nothing instances.
	FleetReaders int
	// FleetMaxConcurrentScans caps in-flight scans per fleet reader
	// (default 64).
	FleetMaxConcurrentScans int
	// FleetQueueDepth bounds each reader's admission wait queue; arrivals
	// beyond it shed immediately with ErrOverloaded (default 128).
	FleetQueueDepth int
	// FleetQueueTimeout is how long a queued scan waits for a slot before
	// shedding (default 50ms).
	FleetQueueTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.PrimaryInstances <= 0 {
		c.PrimaryInstances = 1
	}
	return c
}

// heartbeatInterval is the redo heartbeat period of a multi-instance primary:
// the standby merges its threads in SCN order, so an idle thread would stall
// the merge without one.
const heartbeatInterval = time.Millisecond

// Default service names (re-exported from the service registry).
const (
	// ServicePrimaryOnly routes IMCS population to the primary only.
	ServicePrimaryOnly = "primary"
	// ServiceStandbyOnly routes IMCS population to the standby only.
	ServiceStandbyOnly = "standby"
	// ServicePrimaryAndStandby populates both sides.
	ServicePrimaryAndStandby = "both"
)

// Cluster is an open deployment.
type Cluster struct {
	cfg    Config
	sbyCfg standby.Config
	// closeOnce runs the teardown once and holds later Close calls until it
	// has finished.
	closeOnce sync.Once

	// mu guards the role-mutable state below: Failover/Switchover swap the
	// primary (and, for switchover, the standby) while sessions and Close read
	// them.
	mu       sync.Mutex
	closed   bool
	pri      *primary.Cluster
	sby      *standby.Instance // the standby's apply master
	brk      *broker.Broker
	promoted *standby.Instance // the promoted standby master; nil in steady state
	flt      *fleet.Manager
	rtr      *router.Router

	priStore *imcs.Store
	priEng   *imcs.Engine

	src         transport.Source
	tcpServer   *transport.Server
	tcpReceiver *transport.Receiver
}

// FailoverResult describes a completed promotion (see Cluster.Failover).
type FailoverResult = broker.FailoverResult

// SwitchoverResult describes a completed role swap (see Cluster.Switchover).
type SwitchoverResult = broker.SwitchoverResult

// Open builds and starts a deployment.
func Open(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg}
	pri := primary.NewCluster(cfg.PrimaryInstances, cfg.RowsPerBlock)
	c.pri = pri

	sbyCfg := standby.Config{
		CheckpointInterval:    cfg.CheckpointInterval,
		RowsPerBlock:          cfg.RowsPerBlock,
		BlocksPerIMCU:         cfg.BlocksPerIMCU,
		PopulationInterval:    cfg.PopulationInterval,
		MemLimitBytes:         cfg.MemLimitBytes,
		MetricsAddr:           cfg.MetricsAddr,
		LagSampleInterval:     cfg.LagSampleInterval,
		FreshnessSampleEvery:  cfg.FreshnessSampleEvery,
		WatchdogInterval:      cfg.WatchdogInterval,
		WatchdogStallDeadline: cfg.WatchdogStallDeadline,
		// The master is share 0 of the home-location map; the fleet provisions
		// one home-share reader for each other share.
		HomeInstances: cfg.StandbyReaders + 1,
	}
	c.sbyCfg = sbyCfg

	// Primary-side DBIM: column store + population engine + commit hook. The
	// closures capture the original primary, not the mutable c.pri field: this
	// engine belongs to that node (a role transition reassigns c.pri from
	// another goroutine's point of view and stops this engine).
	c.priStore = imcs.NewStore()
	c.priEng = imcs.NewEngine(c.priStore, pri.Txns(), pri,
		func() []imcs.Target { return imcs.Targets(pri.DB(), pri.Services(), RolePrimary) },
		sbyCfg.Population())
	c.pri.SetDBIMHook(c.priStore)
	c.priEng.Start()

	c.sby = standby.New(sbyCfg)

	src, err := c.buildTransport()
	if err != nil {
		c.priEng.Stop()
		return nil, err
	}
	c.src = src
	c.sby.Attach(src)
	// Ship-stage backlog: the furthest redo any primary instance has written
	// minus the receiver's delivery frontier. Heartbeats (always on for
	// multi-instance primaries) keep idle threads' streams advancing, so the
	// frontier comparison never wedges on a quiet thread.
	c.sby.SetShipFrontier(func() scn.SCN {
		var last scn.SCN
		for _, inst := range pri.Instances() {
			if l := inst.Stream().LastSCN(); l > last {
				last = l
			}
		}
		return last
	})
	c.sby.Start()
	// The fleet manager and its router exist even with no reader of either
	// kind, so ApplyFleet can scale up later and routing fails with typed
	// errors, never nil dereferences.
	c.flt = fleet.NewManager(c.sby, fleet.Spec{
		Readers:            cfg.FleetReaders,
		MaxConcurrentScans: cfg.FleetMaxConcurrentScans,
		QueueDepth:         cfg.FleetQueueDepth,
		QueueTimeout:       cfg.FleetQueueTimeout,
	})
	c.wireRouter(c.sby)
	if cfg.PrimaryInstances > 1 {
		c.pri.StartHeartbeats(heartbeatInterval)
	}
	return c, nil
}

// wireRouter (re)builds the front-door router over the fleet against the
// given standby master's service registry, and exposes the router totals on
// that master's /debug/stats. Called at Open and again after a switchover
// rebinds the fleet to the rebuilt standby.
func (c *Cluster) wireRouter(master *standby.Instance) {
	rtr := router.New(c.flt, master.Services(), master.Obs())
	master.AddDebugStats("router", func() any { return rtr.Totals() })
	c.mu.Lock()
	c.rtr = rtr
	c.mu.Unlock()
}

func (c *Cluster) buildTransport() (transport.Source, error) {
	var streams []*redo.Stream
	var threads []uint16
	for _, inst := range c.pri.Instances() {
		streams = append(streams, inst.Stream())
		threads = append(threads, inst.Thread())
	}
	if !c.cfg.UseTCP {
		return transport.NewInProc(streams...), nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("dbimadg: tcp transport: %w", err)
	}
	c.tcpServer = transport.NewServer(ln, streams...)
	rcv, err := transport.Connect(c.tcpServer.Addr(), threads, 0)
	if err != nil {
		c.tcpServer.Close()
		return nil, err
	}
	c.tcpReceiver = rcv
	return rcv, nil
}

// Close shuts the deployment down. It is idempotent and role-transition
// safe: every Close returns only once the first one's teardown has finished,
// and the teardown order — redo generation, then transport, then standby
// apply, then population engines — holds whether the cluster is in its steady
// state or was failed/switched over (components a transition already stopped
// shut down as no-ops).
func (c *Cluster) Close() { c.closeOnce.Do(c.close) }

func (c *Cluster) close() {
	c.mu.Lock()
	c.closed = true
	pri, sby, promoted, flt := c.pri, c.sby, c.promoted, c.flt
	rcv, srv, priEng := c.tcpReceiver, c.tcpServer, c.priEng
	c.mu.Unlock()

	pri.Close() // end redo generation (and heartbeats) first
	if rcv != nil {
		rcv.Close() // transport down before standby apply: mirrors end cleanly
	}
	if srv != nil {
		srv.Close()
	}
	flt.Shutdown() // drain the readers while the master is still up
	sby.Stop()
	priEng.Stop()
	if promoted != nil {
		// The promoted master's apply pipeline is long stopped; only the
		// population engine RestartPopulation swapped in is still running.
		promoted.Engine().Stop()
	}
}

// Failover promotes the standby to primary after primary loss (the old
// primary, if still reachable, is closed to end redo generation — the
// simulation of reading out its archived logs). Terminal recovery drains
// every shipped record, in-flight transactions are rolled back, and the node
// opens read-write with its column store retained WARM: analytics continue on
// the IMCUs populated while it was a standby, no repopulation. After a
// successful failover, PrimarySession targets the promoted node and
// StandbySession serves read-only queries against it at live snapshots.
func (c *Cluster) Failover() (*FailoverResult, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("dbimadg: cluster closed")
	}
	res, err := c.broker().Failover()
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	// No standby remains after a failover: the broker drained the fleet, and
	// every future routed placement fails with ErrNoReader.
	c.completeTransition()
	c.mu.Unlock()
	return res, nil
}

// Switchover performs a planned role swap: the standby is promoted exactly as
// in Failover (gracefully — no redo is lost), and the old primary is rebuilt
// as the new standby, applying the promoted node's redo from the promotion
// SCN onward. StandbySession targets the rebuilt standby afterwards.
func (c *Cluster) Switchover() (*SwitchoverResult, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("dbimadg: cluster closed")
	}
	res, err := c.broker().Switchover()
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.completeTransition()
	c.sby = res.NewStandby
	c.mu.Unlock()
	// The broker rebound the fleet to the rebuilt standby, re-provisioning both
	// reader kinds on it; the router re-resolves services against its registry.
	c.wireRouter(res.NewStandby)
	return res, nil
}

// broker lazily builds the role broker over the current topology. Caller
// holds c.mu.
func (c *Cluster) broker() *broker.Broker {
	if c.brk == nil {
		c.brk = broker.New(broker.Config{
			Primary:           c.pri,
			Standby:           c.flt,
			Source:            c.src,
			Server:            c.tcpServer,
			PromotedInstances: c.cfg.PrimaryInstances,
			StandbyConfig:     c.sbyCfg,
		})
	}
	return c.brk
}

// completeTransition installs the promoted cluster as the primary. Caller
// holds c.mu.
func (c *Cluster) completeTransition() {
	c.promoted = c.sby
	c.pri = c.brk.Promoted()
	// The old primary's column store died with it; stop its population engine.
	c.priEng.Stop()
}

// Broker exposes the role broker (nil until the first transition is
// requested).
func (c *Cluster) Broker() *broker.Broker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.brk
}

// Primary exposes the primary cluster (advanced use). After a role
// transition this is the promoted cluster.
func (c *Cluster) Primary() *primary.Cluster {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pri
}

// StandbyMaster exposes the standby apply instance (advanced use). After a
// switchover this is the rebuilt standby's master.
func (c *Cluster) StandbyMaster() *standby.Instance {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sby
}

// PromotedMaster returns the standby instance that was promoted to primary,
// or nil in steady state. Its store keeps serving the promoted node's
// analytics.
func (c *Cluster) PromotedMaster() *standby.Instance {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.promoted
}

// StandbyReaders exposes the standby RAC readers: the fleet's home-share
// readers.
func (c *Cluster) StandbyReaders() []*FleetReader { return c.Fleet().ShareReaders() }

// Fleet exposes the reader-fleet manager: declared membership, per-reader
// state, and the fleet watermark.
func (c *Cluster) Fleet() *fleet.Manager {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flt
}

// Router exposes the front-door session router over the fleet.
func (c *Cluster) Router() *router.Router {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rtr
}

// ApplyFleet declares a new fleet shape and reconciles toward it: readers
// are provisioned from the row store (catching up via population and the
// invalidation feed) or drained and removed. Returns once membership
// changes are initiated; use WaitFleetReady to block for catch-up.
func (c *Cluster) ApplyFleet(spec FleetSpec) { c.Fleet().Apply(spec) }

// WaitFleetReady blocks until every fleet reader is Ready or the timeout
// expires.
func (c *Cluster) WaitFleetReady(timeout time.Duration) bool {
	return c.Fleet().WaitReady(timeout)
}

// PrimaryStore exposes the primary-side column store.
func (c *Cluster) PrimaryStore() *imcs.Store { return c.priStore }

// Observability returns the standby master's metric registry — every
// pipeline counter, lag gauge and stage histogram. Snapshot it for end-of-run
// reports or scrape it via MetricsAddr.
func (c *Cluster) Observability() *obs.Registry { return c.sby.Obs() }

// MetricsAddr returns the standby master's bound observability address, or ""
// when Config.MetricsAddr was unset.
func (c *Cluster) MetricsAddr() string { return c.sby.MetricsAddr() }

// QueryLog returns the standby master's recent/slow query log: every query a
// standby session runs is profiled and recorded here (and served on
// /debug/queries when MetricsAddr is set).
func (c *Cluster) QueryLog() *QueryLog { return c.sby.QueryLog() }

// Freshness returns the standby master's commit-to-visible freshness tracer
// (nil when Config.FreshnessSampleEvery is negative): sampled per-transaction
// spans from primary commit through ship/merge/dispatch/apply/mine/flush to
// QuerySCN publication, with SLO percentile summaries and span waterfalls
// (also served on /debug/freshness when MetricsAddr is set).
func (c *Cluster) Freshness() *obs.FreshnessTracer { return c.StandbyMaster().Freshness() }

// StandbyWatchdog returns the standby master's pipeline liveness watchdog:
// per-stage progress/backlog liveness with planned-pause suppression (also
// served on /debug/health when MetricsAddr is set).
func (c *Cluster) StandbyWatchdog() *obs.Watchdog { return c.StandbyMaster().Watchdog() }

// FlightRecorder returns the standby master's stall-bundle recorder: bounded
// diagnostic bundles (stage table, metrics, trace tail, goroutine profile,
// transport state) captured at each stall onset (also served on
// /debug/flightrecorder when MetricsAddr is set).
func (c *Cluster) FlightRecorder() *obs.FlightRecorder {
	return c.StandbyMaster().FlightRecorder()
}

// PrimaryPopulation exposes the primary-side population engine.
func (c *Cluster) PrimaryPopulation() *imcs.Engine { return c.priEng }

// --- DDL --------------------------------------------------------------------

// CreateTable executes a CREATE TABLE on the primary; the definition (with
// assigned object ids) replicates to the standby through a redo marker.
func (c *Cluster) CreateTable(spec *TableSpec) (*Table, error) {
	return c.Primary().Instance(0).CreateTable(spec)
}

// AlterInMemory sets INMEMORY attributes on a table or partition; the policy
// replicates to the standby. The attribute's Service decides placement:
// ServicePrimaryOnly, ServiceStandbyOnly or ServicePrimaryAndStandby.
func (c *Cluster) AlterInMemory(tenant TenantID, table, partition string, attr InMemoryAttr) error {
	return c.Primary().Instance(0).AlterInMemory(tenant, table, partition, attr)
}

// Truncate truncates a table (or one partition of an unindexed table).
func (c *Cluster) Truncate(tenant TenantID, table, partition string) error {
	return c.Primary().Instance(0).Truncate(tenant, table, partition)
}

// DropColumn performs a dictionary-level DROP COLUMN.
func (c *Cluster) DropColumn(tenant TenantID, table, column string) error {
	return c.Primary().Instance(0).DropColumn(tenant, table, column)
}

// StandbyTable resolves a table in the standby's replicated catalog. After a
// failover the "standby" catalog IS the promoted primary's catalog, so
// handles resolved here stay valid across the transition.
func (c *Cluster) StandbyTable(tenant TenantID, name string) (*Table, error) {
	return c.StandbyMaster().DB().Table(tenant, name)
}

// PrimaryTable resolves a table in the current primary's catalog. In steady
// state that is the catalog CreateTable populated; after a role transition it
// is the promoted node's replica, so clients re-resolve their handles here to
// keep writing after Failover/Switchover.
func (c *Cluster) PrimaryTable(tenant TenantID, name string) (*Table, error) {
	return c.Primary().DB().Table(tenant, name)
}

// --- synchronization --------------------------------------------------------

// WaitStandbyCaughtUp blocks until the standby QuerySCN reaches the primary's
// current SCN (sub-second in steady state, per the paper's ADG lag).
func (c *Cluster) WaitStandbyCaughtUp(timeout time.Duration) bool {
	return c.sby.WaitForSCN(c.pri.Snapshot(), timeout)
}

// WaitPopulated blocks until background population settles on both sides.
func (c *Cluster) WaitPopulated(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	ok := c.priEng.WaitIdle(time.Until(deadline))
	ok = c.sby.Engine().WaitIdle(time.Until(deadline)) && ok
	for _, r := range c.flt.ShareReaders() {
		ok = r.Engine().WaitIdle(time.Until(deadline)) && ok
	}
	return ok
}

// Vacuum prunes primary row versions up to the standby's applied watermark
// (safe: the standby re-reads redo, not row versions) and the standby's
// replica up to its QuerySCN, or the oldest snapshot a reader holds there;
// a later read below that fails with ErrSnapshotTooOld. The standby reclaims
// behind its repopulations on its own; this pass also covers tables without
// a column store.
func (c *Cluster) Vacuum() {
	q := c.sby.QuerySCN()
	if q == 0 {
		return
	}
	c.pri.Vacuum(q)
	c.sby.DB().Vacuum(rowstore.SnapshotsOf(c.sby.Txns()).Reclaim(q), c.sby.Txns())
}

// ClusterStats aggregates deployment statistics.
type ClusterStats struct {
	PrimarySCN       SCN
	Standby          standby.Stats
	PrimaryStore     imcs.StoreStats
	StandbyStore     imcs.StoreStats
	ReaderStores     []imcs.StoreStats
	RedoBytesPerInst []int64
}

// Stats returns a snapshot of deployment statistics.
func (c *Cluster) Stats() ClusterStats {
	st := ClusterStats{
		PrimarySCN:   c.pri.Clock().Current(),
		Standby:      c.sby.Stats(),
		PrimaryStore: c.priStore.Stats(),
		StandbyStore: c.sby.Store().Stats(),
	}
	for _, r := range c.flt.ShareReaders() {
		st.ReaderStores = append(st.ReaderStores, r.Store().Stats())
	}
	for _, inst := range c.pri.Instances() {
		st.RedoBytesPerInst = append(st.RedoBytesPerInst, inst.Stream().Bytes())
	}
	return st
}
