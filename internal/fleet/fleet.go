// Package fleet keeps the column stores of a standby's non-apply instances
// current: one Reader type over one redo-apply master, fed by the master's
// invalidation flush and QuerySCN publications (§III.F), owned and reconciled
// by a Manager that survives role transitions (failover shuts the fleet down
// with the lost standby; switchover rebinds it to the rebuilt one).
//
// A reader's placement is data, not a second implementation. With no home
// predicate it is a full copy — the capacity-expansion story of the paper's §I
// ("three stacked standbys... capacity for analytics grows with each added
// standby") scaled down to instances inside one process: it mirrors the whole
// standby-enabled set, receives every invalidation group, trails the master
// asynchronously (a slow reader shows up as apply lag on that reader, never as
// apply backpressure on the pipeline), is reconciled by Spec{Readers: n} and
// serves routed sessions. With a home predicate it is the §III.F home-location
// share of a standby RAC: it populates and receives only the IMCUs homed on
// it, and the master waits for its acknowledgement before publishing, so a
// scan at the master's QuerySCN can span the master's and the shares' stores.
// Either way the feed is FIFO per reader, and because all flush for an
// advancement completes before its publication, applying messages in order
// keeps each reader transactionally consistent at its own published QuerySCN.
//
// Each reader also carries admission control (a concurrent-scan semaphore and
// a bounded wait queue with deadline shedding) so an analytic overload sheds
// with ErrOverloaded instead of collapsing the reader — or the apply path.
package fleet

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dbimadg/internal/core"
	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// ErrNoReader reports that no standby reader is available to serve the
// request: the fleet is empty (for example after a failover consumed the
// standby), no reader is Ready, or none satisfies the caller's freshness or
// read-your-writes bound within the allowed wait.
var ErrNoReader = errors.New("fleet: no standby reader available")

// ErrOverloaded reports that admission control shed the request: every
// eligible reader is at its concurrent-scan limit with a full wait queue, or
// the queue deadline expired before a slot freed up.
var ErrOverloaded = errors.New("fleet: readers overloaded, scan shed")

// State is a fleet reader's lifecycle state.
type State int32

const (
	// StateProvisioning (the zero state): built, not yet enlisted in the feed.
	StateProvisioning State = iota
	// StateCatchingUp: enlisted at the master's QuerySCN with the population
	// engine running; initial population from the row store not yet settled.
	StateCatchingUp
	// StateReady: initial population settled; a full-copy reader is now
	// eligible for routing.
	StateReady
	// StateDraining: removed from routing, waiting for in-flight scans.
	StateDraining
	// StateGone: fully stopped and detached.
	StateGone
)

func (s State) String() string {
	switch s {
	case StateProvisioning:
		return "PROVISIONING"
	case StateCatchingUp:
		return "CATCHING_UP"
	case StateReady:
		return "READY"
	case StateDraining:
		return "DRAINING"
	case StateGone:
		return "GONE"
	default:
		return "UNKNOWN"
	}
}

// Spec is the declared fleet shape the Manager reconciles toward.
type Spec struct {
	// Readers is the desired number of full-copy reader standbys. (The
	// home-share readers are not declared here: there is one per non-master
	// share of the master's home-location map.)
	Readers int
	// MaxConcurrentScans caps in-flight scans per reader (default 64).
	MaxConcurrentScans int
	// QueueDepth bounds the per-reader admission wait queue; an arrival
	// beyond it is shed immediately (default 128).
	QueueDepth int
	// QueueTimeout is how long a queued scan waits for a slot before being
	// shed (default 50ms).
	QueueTimeout time.Duration
	// DrainTimeout bounds how long a removal waits for in-flight scans
	// before detaching the reader anyway (default 5s).
	DrainTimeout time.Duration
}

func (s Spec) withDefaults() Spec {
	if s.Readers < 0 {
		s.Readers = 0
	}
	if s.MaxConcurrentScans <= 0 {
		s.MaxConcurrentScans = 64
	}
	if s.QueueDepth <= 0 {
		s.QueueDepth = 128
	}
	if s.QueueTimeout <= 0 {
		s.QueueTimeout = 50 * time.Millisecond
	}
	if s.DrainTimeout <= 0 {
		s.DrainTimeout = 5 * time.Second
	}
	return s
}

// msg is one entry on a reader's pipeline: invalidation groups, a coarse
// invalidation of a tenant or of objects, or a QuerySCN publication.
type msg struct {
	groups  []core.Group
	coarse  *rowstore.TenantID
	objs    []rowstore.ObjID
	publish *publication
}

type publication struct {
	q       scn.SCN
	dropped []rowstore.ObjID
}

// queue is the reader's FIFO feed. The flush hot path pushes without ever
// blocking (the core.Sink contract); the reader's coordinator goroutine
// pops in batches. A full-copy reader that falls behind accumulates lag here
// and is skipped by lag-aware routing, instead of stalling the master's flush;
// past feedBound messages the backlog folds (see fold), so what a lagging
// reader holds is bounded, not the change vectors of every group it missed. A
// home-share reader's backlog is bounded by one advancement: the master's
// barrier waits for it to drain.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []msg
	pushed int64         // messages ever accepted, less those folded away
	shed   *atomic.Int64 // counts the messages folded away
	closed bool
}

// feedBound is how many messages a reader's feed holds before it folds.
const feedBound = 1024

func newQueue(shed *atomic.Int64) *queue {
	q := &queue{shed: shed}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(m msg) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, m)
		q.pushed++
		if len(q.items) > feedBound {
			q.fold()
		}
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// fold replaces each of two stretches of the backlog, up to its newest
// publication and after it, with its coarse tenant invalidations, a coarse
// invalidation of every object its groups touched, and its newest publication
// carrying every object the folded ones dropped. The second stretch's
// invalidations are of commits past that publication: they must land after the
// reader releases its quiesce there, or a snapshot taken then would undo them.
// Coarse-invalid units serve from the row store until they repopulate, so
// answers stay right. Caller holds q.mu.
func (q *queue) fold() {
	last := -1
	for i, m := range q.items {
		if m.publish != nil {
			last = i
		}
	}
	var out []msg
	for _, stretch := range [][]msg{q.items[:last+1], q.items[last+1:]} {
		var objs []rowstore.ObjID
		var pub *publication
		for _, m := range stretch {
			for _, g := range m.groups {
				objs = append(objs, g.Obj)
			}
			objs = append(objs, m.objs...)
			if m.coarse != nil {
				out = append(out, m)
			}
			if m.publish != nil {
				if pub == nil {
					pub = &publication{}
				}
				pub.q = m.publish.q
				pub.dropped = append(pub.dropped, m.publish.dropped...)
			}
		}
		if slices.Sort(objs); len(objs) > 0 {
			out = append(out, msg{objs: slices.Compact(objs)})
		}
		if pub != nil {
			out = append(out, msg{publish: pub})
		}
	}
	folded := int64(len(q.items) - len(out))
	q.items, q.pushed = out, q.pushed-folded
	q.shed.Add(folded)
}

func (q *queue) accepted() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pushed
}

// popAll blocks until at least one message is queued (or the queue closes)
// and returns the whole backlog. ok is false once the queue is closed and
// drained.
func (q *queue) popAll() (batch []msg, ok bool) {
	q.mu.Lock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	batch, q.items = q.items, nil
	q.mu.Unlock()
	return batch, len(batch) > 0
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Reader is one non-apply standby instance: a column store over the shared
// physical replica, populated by its own engine at its own QuerySCN, a local
// recovery coordinator applying the master's feed, and admission control.
type Reader struct {
	id int
	// home is the reader's placement. Nil: a full copy. Non-nil: the §III.F
	// home-location share — it reports whether the IMCU covering block blk of
	// obj is homed here, and doubles as the population engine's HomeFilter.
	home   func(obj rowstore.ObjID, blk rowstore.BlockNo) bool
	store  *imcs.Store
	engine *imcs.Engine

	state    atomic.Int32
	querySCN atomic.Uint64
	quiesce  sync.RWMutex // local quiesce: population snapshot vs apply
	// snaps is the master's snapshot registry; the reader keeps its QuerySCN,
	// pinned, there (the loop owns pinned once the reader is enlisted).
	snaps  *rowstore.Snapshots
	pinned scn.SCN

	q       *queue
	applied atomic.Int64 // messages fully processed (the barrier's acknowledgement)
	// caughtUp is poked (1-buffered, never blocking) each time the loop has
	// applied a whole backlog: what the master's barrier sleeps on.
	caughtUp chan struct{}
	adm      *admission

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// ID returns the reader's fleet-unique id.
func (r *Reader) ID() int { return r.id }

// State returns the reader's lifecycle state.
func (r *Reader) State() State { return State(r.state.Load()) }

func (r *Reader) setState(s State) { r.state.Store(int32(s)) }

// QuerySCN returns the consistency point published to this reader.
func (r *Reader) QuerySCN() scn.SCN { return scn.SCN(r.querySCN.Load()) }

// Store returns the reader's column store.
func (r *Reader) Store() *imcs.Store { return r.store }

// Engine returns the reader's population engine.
func (r *Reader) Engine() *imcs.Engine { return r.engine }

// Admit acquires one scan slot under the reader's admission control,
// returning the release function. It sheds with ErrOverloaded when the
// reader is saturated and the wait queue is full or the queue deadline
// expires; it fails with ErrNoReader when the reader left Ready while the
// caller was queued (the caller should re-place).
func (r *Reader) Admit() (release func(), err error) {
	release, err = r.adm.acquire()
	if err != nil {
		return nil, err
	}
	if r.State() != StateReady {
		release()
		return nil, ErrNoReader
	}
	return release, nil
}

// InFlight returns the number of scans currently holding a slot.
func (r *Reader) InFlight() int { return r.adm.inFlight() }

// Queued returns the number of scans waiting for a slot.
func (r *Reader) Queued() int { return int(r.adm.queued.Load()) }

// Load is the placement cost: in-flight plus queued scans.
func (r *Reader) Load() int { return r.adm.inFlight() + int(r.adm.queued.Load()) }

// SchedStats returns the reader's admission counters (admitted, shed).
func (r *Reader) SchedStats() (admitted, shed int64) {
	return r.adm.admitted.Load(), r.adm.shed.Load()
}

// loop is the reader's local recovery coordinator: it applies the feed in FIFO
// order. The local quiesce period spans from the first invalidation of a
// master advancement until the matching publication: a population snapshot
// captured in between could be older than invalidations already applied, whose
// effect a later repopulation would silently discard. The feed is FIFO, so
// "groups... publish" boundaries delimit advancements exactly.
//
// The reader's QuerySCN stays pinned in the master's snapshot registry, so the
// master reclaims no version a scan or a build at it needs.
func (r *Reader) loop() {
	defer r.wg.Done()
	defer func() { r.snaps.Unpin(r.pinned) }()
	inQuiesce := false
	defer func() {
		if inQuiesce {
			r.quiesce.Unlock()
		}
	}()
	for {
		batch, ok := r.q.popAll()
		if !ok {
			return
		}
		for _, m := range batch {
			if !inQuiesce {
				r.quiesce.Lock()
				inQuiesce = true
			}
			switch {
			case m.groups != nil:
				core.ApplyGroups(r.store, m.groups)
			case m.coarse != nil:
				r.store.InvalidateTenant(*m.coarse)
			case m.objs != nil:
				for _, obj := range m.objs {
					r.store.InvalidateObject(obj)
				}
			case m.publish != nil:
				for _, obj := range m.publish.dropped {
					r.store.DropObject(obj)
				}
				// A publication at or below this store's QuerySCN (a
				// restarted master's first, at its resume point) moves nothing.
				if q := m.publish.q; uint64(q) > r.querySCN.Load() {
					if r.snaps.Pin(q) == nil { // above the old pin, so above the floor
						r.snaps.Unpin(r.pinned)
						r.pinned = q
					}
					r.querySCN.Store(uint64(q))
				}
				r.quiesce.Unlock()
				inQuiesce = false
			}
			r.applied.Add(1)
		}
		select {
		case r.caughtUp <- struct{}{}:
		default:
		}
	}
}

// awaitReady promotes the reader from CatchingUp to Ready once the initial
// population pass its enlistment scheduled has settled.
func (r *Reader) awaitReady() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case <-time.After(200 * time.Microsecond):
		}
		if r.engine.Pending() == 0 {
			// Fails, harmlessly, when a drain has already moved the state on.
			r.state.CompareAndSwap(int32(StateCatchingUp), int32(StateReady))
			return
		}
	}
}

// drained reports whether everything fed to the reader so far is applied.
func (r *Reader) drained() bool { return r.applied.Load() >= r.q.accepted() }

// close stops the reader's goroutines and engine. Idempotent.
func (r *Reader) close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.q.close()
	r.wg.Wait()
	r.engine.Stop()
	r.setState(StateGone)
}

// snapshotter captures population snapshots under the reader's quiesce lock:
// outside an advancement the reader's QuerySCN is a stable consistency point,
// and every invalidation for commits past it arrives through the FIFO feed.
type snapshotter struct{ r *Reader }

func (s snapshotter) CaptureSnapshot() scn.SCN {
	s.r.quiesce.RLock()
	defer s.r.quiesce.RUnlock()
	return s.r.QuerySCN()
}
