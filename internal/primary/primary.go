// Package primary implements the primary (production) database: one or more
// RAC instances sharing a row store, SCN clock and transaction table, each
// generating its own redo thread. It also hosts the DDL entry points that
// emit redo markers (§III.G) and the specialized redo generation at commit
// (§III.E).
package primary

import (
	"fmt"
	"sync"
	"time"

	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/service"
	"dbimadg/internal/txn"
)

// Cluster is the primary database: shared state plus its RAC instances.
type Cluster struct {
	clock    *scn.Clock
	txns     *txn.Table
	db       *rowstore.Database
	ids      scn.TxnIDAllocator
	gate     sync.Mutex // commit gate: serializes commit publication with snapshots
	services *service.Registry
	// roles is the role set this cluster's node serves; a freshly created
	// primary is RolePrimary, a standby promoted by failover also keeps serving
	// its standby (reporting) services, so commit-time IMCS maintenance must
	// consider both roles when deciding whether an object is populated here.
	roles service.Role

	mu        sync.Mutex
	instances []*Instance
	hook      txn.DBIMHook
	hbStop    chan struct{}
	hbWG      sync.WaitGroup

	lastVacuum scn.SCN // horizon of the previous vacuum (for txn-table cleanup)
}

// NewCluster creates a primary database with n RAC instances. rowsPerBlock <=0
// selects the default block capacity.
func NewCluster(n int, rowsPerBlock int) *Cluster {
	if n < 1 {
		panic("primary: cluster needs at least one instance")
	}
	c := &Cluster{
		clock:    scn.NewClock(1), // SCN 1 is the frozen-version epoch; start above it
		txns:     txn.NewTable(),
		db:       rowstore.NewDatabase(rowsPerBlock),
		services: service.NewRegistry(),
		roles:    service.RolePrimary,
	}
	for i := 0; i < n; i++ {
		inst := newInstance(c, uint16(i+1))
		c.instances = append(c.instances, inst)
	}
	return c
}

// NewClusterFrom creates a primary cluster over an existing database: the row
// store, transaction table and service registry are adopted in place (no
// copy), and the SCN clock starts at startSCN so the first new commit SCN is
// startSCN+1. roles is the role set the node serves after the transition. The
// transaction-id allocator is seeded past every id the adopted table already
// holds, so new transactions can never collide with replicated ones. This is
// the promotion path: a failed-over standby's replica becomes the production
// database without rebuilding anything.
func NewClusterFrom(n int, db *rowstore.Database, txns *txn.Table, services *service.Registry, startSCN scn.SCN, roles service.Role) *Cluster {
	if n < 1 {
		panic("primary: cluster needs at least one instance")
	}
	if roles == 0 {
		roles = service.RolePrimary
	}
	c := &Cluster{
		clock:    scn.NewClock(startSCN),
		txns:     txns,
		db:       db,
		services: services,
		roles:    roles,
	}
	c.ids.Observe(txns.MaxID())
	for i := 0; i < n; i++ {
		inst := newInstance(c, uint16(i+1))
		c.instances = append(c.instances, inst)
	}
	return c
}

// SetDBIMHook installs the primary-side column-store maintenance hook. It
// must be set before transactional activity begins.
func (c *Cluster) SetDBIMHook(h txn.DBIMHook) {
	c.mu.Lock()
	c.hook = h
	c.mu.Unlock()
	for _, inst := range c.instances {
		inst.mgr.SetDBIMHook(h)
	}
}

// Clock returns the cluster-wide SCN clock.
func (c *Cluster) Clock() *scn.Clock { return c.clock }

// Txns returns the transaction table.
func (c *Cluster) Txns() *txn.Table { return c.txns }

// DB returns the shared row store / catalog.
func (c *Cluster) DB() *rowstore.Database { return c.db }

// Services returns the service registry.
func (c *Cluster) Services() *service.Registry { return c.services }

// Instances returns the RAC instances.
func (c *Cluster) Instances() []*Instance {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Instance, len(c.instances))
	copy(out, c.instances)
	return out
}

// Instance returns instance i (0-based).
func (c *Cluster) Instance(i int) *Instance { return c.instances[i] }

// Snapshot acquires a Consistent Read snapshot for a query on the primary.
func (c *Cluster) Snapshot() scn.SCN {
	c.gate.Lock()
	s := c.clock.Current()
	c.gate.Unlock()
	return s
}

// CaptureSnapshot is Snapshot as a population engine asks for it
// (imcs.Snapshotter): any commit-gate snapshot is a consistency point.
func (c *Cluster) CaptureSnapshot() scn.SCN { return c.Snapshot() }

// Close ends redo generation on all instances (shutting down the primary);
// standby readers drain the remaining records. It also stops heartbeats.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.hbStop != nil {
		close(c.hbStop)
		c.hbStop = nil
	}
	c.mu.Unlock()
	c.hbWG.Wait()
	for _, inst := range c.Instances() {
		inst.stream.Close()
	}
}

// StartHeartbeats emits periodic empty redo records on every instance's
// thread. With RAC, the standby's log merger can only release a record once
// every other thread has advanced past its SCN, so a quiet instance would
// stall merging; heartbeats bound that stall (the role of Oracle's periodic
// redo on idle threads).
func (c *Cluster) StartHeartbeats(interval time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hbStop != nil {
		return
	}
	c.hbStop = make(chan struct{})
	stop := c.hbStop
	for _, inst := range c.instances {
		w := inst.writer
		c.hbWG.Add(1)
		go func() {
			defer c.hbWG.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					w.Emit(nil)
				}
			}
		}()
	}
}

// Vacuum prunes row version chains up to horizon and drops transaction-table
// entries that can no longer be referenced (those below the previous vacuum's
// horizon, whose versions are all pruned or frozen). The horizon must be <=
// the oldest snapshot any reader (primary query, standby shipping) still
// needs — callers typically pass the standby's applied SCN.
func (c *Cluster) Vacuum(horizon scn.SCN) (versionsFreed, txnsDropped int) {
	c.mu.Lock()
	prev := c.lastVacuum
	if horizon < prev {
		horizon = prev
	}
	c.lastVacuum = horizon
	c.mu.Unlock()
	versionsFreed = c.db.Vacuum(horizon, c.txns)
	if prev > 0 {
		txnsDropped = c.txns.Forget(prev)
	}
	return versionsFreed, txnsDropped
}

// Instance is one primary RAC instance: its redo thread and transaction
// manager. Sessions Begin transactions against an instance.
type Instance struct {
	cluster *Cluster
	thread  uint16
	stream  *redo.Stream
	writer  *LogWriter
	mgr     *txn.Manager
}

func newInstance(c *Cluster, thread uint16) *Instance {
	inst := &Instance{
		cluster: c,
		thread:  thread,
		stream:  redo.NewStream(thread),
	}
	inst.writer = &LogWriter{clock: c.clock, stream: inst.stream, thread: thread, gate: &c.gate}
	inst.mgr = txn.NewManager(c.clock, &c.ids, c.txns, inst.writer, c.hook, &policyView{c: c})
	inst.mgr.SetSegmentResolver(c.db.Segment)
	return inst
}

// Thread returns the instance's redo thread number.
func (i *Instance) Thread() uint16 { return i.thread }

// Stream returns the instance's redo log stream (shipped to the standby).
func (i *Instance) Stream() *redo.Stream { return i.stream }

// Cluster returns the owning cluster.
func (i *Instance) Cluster() *Cluster { return i.cluster }

// Begin starts a read-write transaction on this instance.
func (i *Instance) Begin() *txn.Txn { return i.mgr.Begin() }

// Manager returns the instance's transaction manager.
func (i *Instance) Manager() *txn.Manager { return i.mgr }

// LogWriter serializes redo emission for one redo thread and implements
// txn.RedoEmitter. The per-stream mutex is the redo allocation latch; the
// cluster-wide gate additionally serializes commit publication with snapshot
// acquisition so no reader can observe a torn commit.
type LogWriter struct {
	clock  *scn.Clock
	stream *redo.Stream
	thread uint16
	gate   *sync.Mutex

	mu sync.Mutex
}

// Emit implements txn.RedoEmitter. Every record is stamped with the
// primary-side wall clock at emission; the standby's freshness tracer reads
// the stamp off commit records to measure commit-to-visible latency.
func (w *LogWriter) Emit(cvs []redo.CV) scn.SCN {
	w.mu.Lock()
	s := w.clock.Next()
	w.stream.Append(redo.NewRecord(s, w.thread, cvs, time.Now().UnixNano()))
	w.mu.Unlock()
	return s
}

// EmitCommit implements txn.RedoEmitter.
func (w *LogWriter) EmitCommit(cvs []redo.CV, commitHook func(scn.SCN)) scn.SCN {
	w.gate.Lock()
	w.mu.Lock()
	s := w.clock.Next()
	w.stream.Append(redo.NewRecord(s, w.thread, cvs, time.Now().UnixNano()))
	if commitHook != nil {
		commitHook(s)
	}
	w.mu.Unlock()
	w.gate.Unlock()
	return s
}

// Snapshot implements txn.RedoEmitter.
func (w *LogWriter) Snapshot() scn.SCN {
	w.gate.Lock()
	s := w.clock.Current()
	w.gate.Unlock()
	return s
}

// policyView adapts the catalog's INMEMORY attributes and the service
// registry into the transaction manager's population policy.
type policyView struct {
	c *Cluster
}

func (p *policyView) enabled(obj rowstore.ObjID, role service.Role) bool {
	seg, ok := p.c.db.Segment(obj)
	if !ok {
		return false
	}
	tbl, err := p.c.db.Table(seg.Tenant(), seg.TableName())
	if err != nil {
		return false
	}
	part, err := tbl.PartitionByName(seg.PartName())
	if err != nil {
		return false
	}
	attr := part.InMemory()
	return attr.Enabled && p.c.services.RunsOn(attr.Service, role)
}

// EnabledPrimary implements txn.PopulationPolicy: is the object populated in
// a column store on THIS node? After a failover the node serves both roles,
// so standby-service objects count too — their retained IMCUs must keep
// receiving commit-time invalidations.
func (p *policyView) EnabledPrimary(obj rowstore.ObjID) bool {
	return p.enabled(obj, p.c.roles)
}

// EnabledStandby implements txn.PopulationPolicy.
func (p *policyView) EnabledStandby(obj rowstore.ObjID) bool {
	return p.enabled(obj, service.RoleStandby)
}

// --- DDL entry points -------------------------------------------------------

// CreateTable executes a CREATE TABLE on the cluster and ships the completed
// spec (with assigned object ids) to the standby as a redo marker.
func (i *Instance) CreateTable(spec *rowstore.TableSpec) (*rowstore.Table, error) {
	tbl, err := i.cluster.db.CreateTable(spec)
	if err != nil {
		return nil, err
	}
	i.writer.Emit([]redo.CV{{
		Kind: redo.CVMarker, Tenant: spec.Tenant,
		Marker: &redo.Marker{Kind: redo.MarkerCreateTable, Tenant: spec.Tenant, TableName: spec.Name, Spec: spec},
	}})
	return tbl, nil
}

// AlterInMemory sets the INMEMORY attribute of a table or one partition
// (partition == "" targets every partition) and emits the corresponding redo
// marker so the standby's population policies follow.
func (i *Instance) AlterInMemory(tenant rowstore.TenantID, table, partition string, attr rowstore.InMemoryAttr) error {
	tbl, err := i.cluster.db.Table(tenant, table)
	if err != nil {
		return err
	}
	if partition == "" {
		for _, p := range tbl.Partitions() {
			p.SetInMemory(attr)
		}
	} else {
		p, err := tbl.PartitionByName(partition)
		if err != nil {
			return err
		}
		p.SetInMemory(attr)
	}
	i.writer.Emit([]redo.CV{{
		Kind: redo.CVMarker, Tenant: tenant,
		Marker: &redo.Marker{Kind: redo.MarkerAlterInMemory, Tenant: tenant, TableName: table, Partition: partition, InMemory: &attr},
	}})
	return nil
}

// Truncate empties a table or one partition (partition == "" truncates all
// partitions and clears the identity index) and ships a marker; the standby
// replays the truncation physically and drops affected IMCUs.
func (i *Instance) Truncate(tenant rowstore.TenantID, table, partition string) error {
	tbl, err := i.cluster.db.Table(tenant, table)
	if err != nil {
		return err
	}
	var obj rowstore.ObjID
	if partition == "" {
		for _, p := range tbl.Partitions() {
			p.Seg.Truncate()
		}
		if idx := tbl.Index(); idx != nil {
			idx.Clear()
		}
	} else {
		p, err := tbl.PartitionByName(partition)
		if err != nil {
			return err
		}
		if tbl.Index() != nil {
			return fmt.Errorf("primary: partition-level truncate of indexed table %q not supported", table)
		}
		p.Seg.Truncate()
		obj = p.Seg.Obj()
	}
	i.writer.Emit([]redo.CV{{
		Kind: redo.CVMarker, Tenant: tenant,
		Marker: &redo.Marker{Kind: redo.MarkerTruncate, Tenant: tenant, TableName: table, Partition: partition, Obj: obj},
	}})
	return nil
}

// DropColumn performs a dictionary-level DROP COLUMN and ships a marker; the
// standby swaps its schema and drops the object's IMCUs at the next
// consistency point (§III.G).
func (i *Instance) DropColumn(tenant rowstore.TenantID, table, column string) error {
	tbl, err := i.cluster.db.Table(tenant, table)
	if err != nil {
		return err
	}
	newSchema, err := tbl.Schema().DropColumn(column)
	if err != nil {
		return err
	}
	tbl.SetSchema(newSchema)
	i.writer.Emit([]redo.CV{{
		Kind: redo.CVMarker, Tenant: tenant,
		Marker: &redo.Marker{Kind: redo.MarkerDropColumn, Tenant: tenant, TableName: table, Column: column},
	}})
	return nil
}
