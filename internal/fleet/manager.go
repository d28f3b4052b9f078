package fleet

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dbimadg/internal/core"
	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/service"
	"dbimadg/internal/standby"
)

// masterHome is the apply master's index in the home-location map; a reader
// provisioned "at" it hosts no share and is a full copy.
const masterHome = 0

// Manager owns every reader over one master: it provisions one home-share
// reader per non-master share of the master's home-location map, reconciles
// the full-copy readers toward its Spec, feeds both kinds as the master
// flusher's single downstream (it implements core.Sink) and through the
// master's publish hook, and survives role transitions (Shutdown on failover,
// Rebind on switchover).
type Manager struct {
	mu     sync.Mutex
	spec   Spec
	master *standby.Instance
	nextID int
	closed bool

	// live is the membership. The feed and the routing hot paths read it
	// lock-free; it is replaced (never mutated) under mu.
	live atomic.Pointer[membership]

	// retired admission tallies from drained readers, so fleet-wide counters
	// stay monotone across membership churn.
	retiredAdmitted atomic.Int64
	retiredShed     atomic.Int64
	// folded counts the feed messages the readers' feeds folded away.
	folded atomic.Int64
}

// membership is one immutable snapshot of the live (non-Gone) readers: the
// full copies in provision order, the home shares by home index.
type membership struct {
	full, share []*Reader
}

// NewManager builds the manager over master and reconciles it to spec. Readers
// inherit the master's population settings (see standby.Config.Population).
func NewManager(master *standby.Instance, spec Spec) *Manager {
	m := &Manager{spec: spec.withDefaults()}
	m.live.Store(&membership{})
	m.bind(master)
	return m
}

// bind attaches the manager to a master — as its flusher's sink, its publish
// hook, the fleet metrics on its registry and the fleet block in its
// /debug/stats document — then provisions the home-share readers its
// home-location map calls for and the declared full-copy readers. Called from
// NewManager and Rebind only, with no reader live.
func (m *Manager) bind(master *standby.Instance) {
	m.mu.Lock()
	m.master = master
	m.mu.Unlock()
	master.SetFlushSink(m)
	master.SetPublishHook(m.onPublish)
	m.registerObs(master)
	for home := 1; home < master.HomeMap().Instances; home++ {
		_ = m.addReader(home) // scans read a share not enlisted from the row store
	}
	m.reconcile()
}

// registerObs exposes fleet-wide metrics on the master's registry and the
// per-reader table on its /debug/stats document. Re-run on Rebind (the new
// master has a fresh registry).
func (m *Manager) registerObs(master *standby.Instance) {
	r := master.Obs()
	r.GaugeFunc("fleet_readers", "fleet readers not yet drained",
		func() float64 { return float64(len(m.Readers())) })
	r.GaugeFunc("fleet_readers_ready", "fleet readers in READY state",
		func() float64 {
			n := 0
			for _, rd := range m.Readers() {
				if rd.State() == StateReady {
					n++
				}
			}
			return float64(n)
		})
	r.GaugeFunc("fleet_watermark_scn", "fleet watermark (master QuerySCN)",
		func() float64 { return float64(m.Watermark()) })
	r.GaugeFunc("fleet_lag_max_scn", "largest reader apply lag vs the fleet watermark",
		func() float64 {
			wm := m.Watermark()
			var max scn.SCN
			for _, rd := range m.Readers() {
				if lag := wm - rd.QuerySCN(); rd.QuerySCN() < wm && lag > max {
					max = lag
				}
			}
			return float64(max)
		})
	r.CounterFunc("fleet_scans_admitted_total", "scans admitted across all fleet readers",
		func() float64 {
			n := m.retiredAdmitted.Load()
			for _, rd := range m.Readers() {
				a, _ := rd.SchedStats()
				n += a
			}
			return float64(n)
		})
	r.CounterFunc("fleet_units_restored_total", "IMCUs installed from the master's capture across all fleet readers",
		func() float64 {
			var n int64
			for _, rd := range m.Readers() {
				n += rd.store.UnitsRestored()
			}
			return float64(n)
		})
	r.CounterFunc("fleet_queue_shed_total", "feed messages folded into coarse invalidations across all fleet readers",
		func() float64 { return float64(m.folded.Load()) })
	r.CounterFunc("fleet_scans_shed_total", "scans shed (ErrOverloaded) across all fleet readers",
		func() float64 {
			n := m.retiredShed.Load()
			for _, rd := range m.Readers() {
				_, s := rd.SchedStats()
				n += s
			}
			return float64(n)
		})
	master.AddDebugStats("fleet", func() any { return m.Stats() })
}

// Groups implements core.Sink: route one transaction's invalidation groups.
// A full-copy reader takes them all; a home-share reader only those homed on
// it. Called from flushing goroutines while the master holds its quiesce lock;
// push never blocks.
func (m *Manager) Groups(groups []core.Group) {
	live := m.live.Load()
	for _, r := range live.full {
		r.q.push(msg{groups: groups})
	}
	for _, r := range live.share {
		var own []core.Group
		for _, g := range groups {
			if r.home(g.Obj, g.Blk) {
				own = append(own, g)
			}
		}
		if own != nil {
			r.q.push(msg{groups: own})
		}
	}
}

// CoarseInvalidate implements core.Sink (the §III.E restart fallback).
func (m *Manager) CoarseInvalidate(tenant rowstore.TenantID) {
	m.broadcast(msg{coarse: &tenant})
}

// Barrier implements core.Sink: wait until every home-share reader has applied
// everything routed to it — the acknowledgement point before the master
// publishes. Full-copy readers trail asynchronously and are not waited for.
// A reader signals after every backlog it applies, and the signal may predate
// the messages this barrier waits for, so each wake-up re-reads the counters.
func (m *Manager) Barrier() {
	for _, r := range m.live.Load().share {
		for !r.drained() {
			select {
			case <-r.stop:
				return
			case <-r.caughtUp:
			}
		}
	}
}

// onPublish relays a QuerySCN publication (and the objects dropped by DDL at
// that consistency point) to every reader's local recovery coordinator. It is
// the master's publish hook: it runs after all flush for the advancement and
// after Barrier.
func (m *Manager) onPublish(q scn.SCN, markers []*standby.MarkerEvent) {
	var dropped []rowstore.ObjID
	for _, ev := range markers {
		dropped = append(dropped, ev.DroppedObjs...)
	}
	m.broadcast(msg{publish: &publication{q: q, dropped: dropped}})
}

func (m *Manager) broadcast(e msg) {
	live := m.live.Load()
	for _, r := range live.full {
		r.q.push(e)
	}
	for _, r := range live.share {
		r.q.push(e)
	}
}

// Spec returns the current declared fleet shape.
func (m *Manager) Spec() Spec {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.spec
}

// Apply declares a new fleet shape and reconciles toward it: readers are
// added (provision, catch up, Ready) or drained and removed to match
// spec.Readers. It returns once membership changes have been initiated;
// catch-up completes asynchronously (watch States or WaitReady).
func (m *Manager) Apply(spec Spec) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.spec = spec.withDefaults()
	m.mu.Unlock()
	m.reconcile()
}

// SetReaders is Apply keeping every other spec field.
func (m *Manager) SetReaders(n int) {
	m.mu.Lock()
	spec := m.spec
	m.mu.Unlock()
	spec.Readers = n
	m.Apply(spec)
}

// reconcile drives the full-copy membership toward spec.Readers.
func (m *Manager) reconcile() {
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return
		}
		want, have := m.spec.Readers, len(m.live.Load().full)
		m.mu.Unlock()
		switch {
		case have < want:
			if m.addReader(0) != nil {
				return // the spec stays unmet until the next Apply
			}
		case have > want:
			m.removeReader()
		default:
			return
		}
	}
}

// addReader provisions one reader: the share of home-location index home, or
// with home 0 (the master's own index) a full copy. The enlistment runs under
// the master's shared quiesce lock: no advancement is mid-flight, so the
// master's current QuerySCN is a true consistency point for the new store, and
// every later advancement's invalidations arrive FIFO before their
// publication. Seeding the reader's QuerySCN there also covers the idle-master
// case — the coordinator only publishes when the watermark moves, so a reader
// enlisted on a quiet system would otherwise wait forever for its first
// publication. Population starts right after: its snapshots are at or past the
// enlistment point, which the feed covers.
//
// Inside the same window the reader goes live through standby.Install at that
// QuerySCN, with the invalidation feed as its source in place of redo, or is
// not enlisted and addReader returns the refusal. A full copy installs the
// master's capture instead of repopulating from the row store: every serving
// unit's bitmap is consistent at exactly that QuerySCN (no flush is in flight
// under the shared lock), and IMCUs are shared by pointer, so the capture costs
// one bitmap copy per unit; installed units count under the store's
// UnitsRestored, not the engine's UnitsPopulated. A home-share reader installs
// the empty snapshot: the master hosts none of its units.
func (m *Manager) addReader(home int) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	master := m.master
	spec := m.spec
	id := m.nextID
	m.nextID++
	m.mu.Unlock()

	r := &Reader{
		id:       id,
		store:    imcs.NewStore(),
		q:        newQueue(&m.folded),
		caughtUp: make(chan struct{}, 1),
		adm:      newAdmission(spec.MaxConcurrentScans, spec.QueueDepth, spec.QueueTimeout),
		stop:     make(chan struct{}),
		snaps:    rowstore.SnapshotsOf(master.Txns()),
	}
	cfg := master.PopulationConfig()
	if home != masterHome {
		hm, chunk := master.HomeMap(), rowstore.BlockNo(cfg.BlocksPerIMCU)
		r.home = func(obj rowstore.ObjID, blk rowstore.BlockNo) bool {
			return hm.HomeOf(obj, blk-blk%chunk) == home
		}
	}
	cfg.HomeFilter = r.home
	r.engine = imcs.NewEngine(r.store, master.Txns(), snapshotter{r}, func() []imcs.Target {
		return imcs.Targets(master.DB(), master.Services(), service.RoleStandby)
	}, cfg)

	var err error
	master.WithQuiesceShared(func() {
		q := master.QuerySCN()
		var images []imcs.UnitImage
		if r.home == nil {
			images = master.Store().CaptureImages()
		}
		if err = standby.Install(r.store, r.snaps, q, images, q+1, q); err != nil {
			return
		}
		r.pinned = q
		r.querySCN.Store(uint64(q))
		r.wg.Add(1)
		go r.loop()
		m.mu.Lock()
		next := *m.live.Load()
		if r.home == nil {
			next.full = append(slices.Clone(next.full), r)
		} else {
			next.share = append(slices.Clone(next.share), r)
		}
		m.live.Store(&next)
		m.mu.Unlock()
	})
	if err != nil {
		return err
	}
	if !r.state.CompareAndSwap(int32(StateProvisioning), int32(StateCatchingUp)) {
		return nil // a concurrent reconcile is already draining it
	}
	r.engine.Start()
	r.engine.Scan()
	r.wg.Add(1)
	go r.awaitReady()
	return nil
}

// removeReader drains and detaches the most recently added full-copy reader: it
// leaves routing immediately (state Draining), stops receiving the feed (its
// store freezes at its current QuerySCN, which stays correct for every scan
// snapshot already placed), waits — bounded — for in-flight and queued scans,
// and stops.
func (m *Manager) removeReader() {
	m.mu.Lock()
	next := *m.live.Load()
	if len(next.full) == 0 {
		m.mu.Unlock()
		return
	}
	// Readers of the old snapshot keep its longer slice header.
	r := next.full[len(next.full)-1]
	next.full = next.full[:len(next.full)-1]
	m.live.Store(&next)
	timeout := m.spec.DrainTimeout
	m.mu.Unlock()
	m.drain(r, timeout)
}

// drain completes a reader's Draining -> Gone transition.
func (m *Manager) drain(r *Reader, timeout time.Duration) {
	r.setState(StateDraining)
	deadline := time.Now().Add(timeout)
	for (r.adm.inFlight() > 0 || r.adm.queued.Load() > 0) && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	r.close()
	a, s := r.SchedStats()
	m.retiredAdmitted.Add(a)
	m.retiredShed.Add(s)
}

// Readers returns the live (non-Gone) full-copy readers in provision order —
// the routable set.
func (m *Manager) Readers() []*Reader { return m.live.Load().full }

// ShareReaders returns the home-share readers, by home index from 1.
func (m *Manager) ShareReaders() []*Reader { return m.live.Load().share }

// Stores returns every column store a scan at the master's QuerySCN spans: the
// master's, then each home-share reader's.
func (m *Manager) Stores() []*imcs.Store {
	out := []*imcs.Store{m.Master().Store()}
	for _, r := range m.ShareReaders() {
		out = append(out, r.store)
	}
	return out
}

// Master returns the apply instance the manager is currently bound to.
func (m *Manager) Master() *standby.Instance {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.master
}

// Watermark returns the fleet watermark: the master's published QuerySCN,
// the freshest consistency point any reader can have reached.
func (m *Manager) Watermark() scn.SCN { return m.Master().QuerySCN() }

// WaitReady blocks until every fleet reader is Ready or the timeout expires;
// it reports whether the fleet settled.
func (m *Manager) WaitReady(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		allReady := true
		for _, r := range m.Readers() {
			if r.State() != StateReady {
				allReady = false
				break
			}
		}
		if allReady {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Shutdown drains every reader of both kinds and detaches from the master —
// the failover path: the standby was promoted and serves every block range
// itself, there is no standby fleet anymore, and routing fails with
// ErrNoReader until a Rebind. The readers have received the final QuerySCN
// publication by then, so any query they are still serving completes
// consistently. Idempotent.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	was := m.live.Swap(&membership{})
	master := m.master
	timeout := m.spec.DrainTimeout
	m.mu.Unlock()

	master.SetPublishHook(nil)
	master.SetFlushSink(nil)
	for _, r := range slices.Concat(was.full, was.share) {
		m.drain(r, timeout)
	}
}

// Rebind re-homes the fleet onto a new master — the switchover path: the old
// fleet (whose master was just promoted) is shut down, the manager attaches to
// the rebuilt standby, and both reader kinds are re-provisioned against it:
// the shares from its home-location map, the full copies from the declared
// spec.
func (m *Manager) Rebind(master *standby.Instance) {
	m.Shutdown()
	m.mu.Lock()
	m.closed = false
	m.mu.Unlock()
	m.bind(master)
}

// ReaderStats is one row of the fleet table (the /debug/stats "fleet" block
// and the adgtop -fleet pane).
type ReaderStats struct {
	ID       int    `json:"id"`
	State    string `json:"state"`
	QuerySCN uint64 `json:"query_scn"`
	LagSCN   uint64 `json:"lag_scn"`
	InFlight int    `json:"in_flight"`
	Queued   int    `json:"queued"`
	Admitted int64  `json:"admitted"`
	Shed     int64  `json:"shed"`
	PopUnits int64  `json:"populated_units"`
	// RestoredUnits counts units installed from the master's capture at
	// provision time — kept apart from the engine's population counters so
	// repopulation pressure reads true across fleet churn.
	RestoredUnits int64 `json:"restored_units"`
}

// Stats is the fleet-wide snapshot.
type Stats struct {
	SpecReaders int           `json:"spec_readers"`
	Watermark   uint64        `json:"watermark_scn"`
	Readers     []ReaderStats `json:"readers"`
}

// Stats snapshots the fleet table.
func (m *Manager) Stats() Stats {
	wm := m.Watermark()
	st := Stats{SpecReaders: m.Spec().Readers, Watermark: uint64(wm)}
	for _, r := range m.Readers() {
		q := r.QuerySCN()
		var lag scn.SCN
		if q < wm {
			lag = wm - q
		}
		a, s := r.SchedStats()
		st.Readers = append(st.Readers, ReaderStats{
			ID:            r.ID(),
			State:         r.State().String(),
			QuerySCN:      uint64(q),
			LagSCN:        uint64(lag),
			InFlight:      r.InFlight(),
			Queued:        r.Queued(),
			Admitted:      a,
			Shed:          s,
			PopUnits:      int64(r.store.Stats().PopulatedUnits),
			RestoredUnits: r.store.UnitsRestored(),
		})
	}
	return st
}
