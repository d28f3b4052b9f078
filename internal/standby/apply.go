package standby

import (
	"sync/atomic"
	"time"

	"dbimadg/internal/obs"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/transport"
)

// applyTask is one change vector handed to a recovery worker. enq is the
// dispatch timestamp: the worker observes apply-stage latency (queueing +
// apply + mine) against it.
type applyTask struct {
	scn scn.SCN
	cv  *redo.CV
	enq time.Time // stamped only for a sampled SCN
}

// applyWorker is one recovery worker process. The merger routes change
// vectors to workers by hashing the DBA (control CVs by transaction id), so
// each worker applies its share strictly in SCN order.
type applyWorker struct {
	id         int
	ch         chan applyTask
	dispatched atomic.Int64
	applied    atomic.Int64
	appliedSCN atomic.Uint64
}

// MarkerEvent is a DDL marker applied at a consistency point, published to
// RAC reader instances together with the new QuerySCN.
type MarkerEvent struct {
	Marker      *redo.Marker
	DroppedObjs []rowstore.ObjID
}

// releaseBatch is how many dispatched records the merger lets a mirror hold
// before it releases them; it releases the rest whenever it runs dry.
const releaseBatch = 256

// mergerLoop is the Log Merger (§II.A): it orders redo records from all
// primary threads by SCN and distributes their change vectors to the
// recovery workers. A record from thread i is released only when every other
// live thread has been observed past its SCN (primary heartbeats bound the
// wait on idle threads). With nothing to read or release it sleeps until any
// of its streams is appended to or closed.
//
// A TCP receiver's mirrors are the merger's private copies of the logs: it
// releases what it has dispatched (workers and journal keep the change vectors
// they need). In-process streams are the primary's own logs, which restarts
// and the broker read again; they are never released.
func (inst *Instance) mergerLoop() {
	defer inst.wg.Done()
	streams := inst.src.Streams()
	// One wake-up shared by every stream, registered before the first read so
	// that an append between an empty sweep and the wait below is never missed.
	wake := make(chan struct{}, 1)
	for _, s := range streams {
		s.Watch(wake)
		defer s.Unwatch(wake)
	}
	readers := make([]*redo.Reader, len(streams))
	peeks := make([]*redo.Record, len(streams))
	peekAt := make([]time.Time, len(streams)) // merge-stage entry per sampled peek
	eol := make([]bool, len(streams))
	lastSeen := make([]scn.SCN, len(streams))
	start := scn.SCN(inst.lastDispatched.Load()) // apply resumes past it
	for i, s := range streams {
		readers[i] = redo.NewReaderAtSCN(s, start+1)
		lastSeen[i] = start
	}
	_, owned := inst.src.(*transport.Receiver)
	released := make([]int, len(streams))
	release := func(i, batch int) {
		upTo := readers[i].Pos()
		if peeks[i] != nil {
			upTo-- // read, not yet dispatched
		}
		if owned && upTo-released[i] >= batch {
			streams[i].Release(upTo)
			released[i] = upTo
		}
	}
	for {
		select {
		case <-inst.stop:
			return
		default:
		}
		progress := false
		for i := range streams {
			if peeks[i] != nil || eol[i] {
				continue
			}
			rec, ok, end := readers[i].TryNext()
			if ok {
				peeks[i], peekAt[i] = rec, time.Time{}
				if inst.trace.Sampled(uint64(rec.SCN)) {
					peekAt[i] = time.Now()
					inst.freshness.Shipped(uint64(rec.SCN), rec.OriginNS)
				}
				progress = true
			} else if end {
				eol[i] = true
				progress = true
			}
		}
		best := -1
		for i := range peeks {
			if peeks[i] != nil && (best < 0 || peeks[i].SCN < peeks[best].SCN) {
				best = i
			}
		}
		if best >= 0 {
			r := peeks[best]
			safe := true
			for j := range streams {
				if j == best || eol[j] {
					continue
				}
				bound := lastSeen[j]
				if peeks[j] != nil {
					bound = peeks[j].SCN
				}
				if r.SCN > bound {
					safe = false // thread j might still produce a lower SCN
					break
				}
			}
			if safe {
				// Merge latency: how long the record waited at the merger for
				// the cross-thread SCN-order proof before release.
				if !peekAt[best].IsZero() {
					inst.trace.Observe(obs.StageMerge, uint64(r.SCN), time.Since(peekAt[best]))
				}
				if !inst.dispatch(r) {
					return // stopping
				}
				peeks[best] = nil
				lastSeen[best] = r.SCN
				release(best, releaseBatch)
				continue
			}
		} else {
			allEOL := true
			for i := range streams {
				if !eol[i] {
					allEOL = false
					break
				}
			}
			if allEOL {
				// End of all logs: workers drain, the coordinator continues.
				// The closed channel is the end-of-redo signal terminal
				// recovery (FinishRecovery) waits on.
				close(inst.endOfRedo)
				return
			}
		}
		if !progress {
			// Everything readable is dispatched. A worker that finished the
			// last record's change vectors before its SCN became the dispatch
			// frontier poked the coordinator too early to cover it.
			inst.pokeCoordinator()
			for i := range streams {
				release(i, 1)
			}
			select {
			case <-inst.stop:
				return
			case <-wake:
			}
		}
	}
}

// dispatch routes one record's CVs to the recovery workers; catalog markers
// are applied inline behind a worker barrier (DDL is rare and must order
// against every data CV). It returns false when the instance is stopping.
func (inst *Instance) dispatch(r *redo.Record) bool {
	var start time.Time
	sampled := inst.trace.Sampled(uint64(r.SCN))
	if sampled {
		start = time.Now()
	}
	for k := range r.CVs {
		cv := &r.CVs[k]
		if cv.Kind == redo.CVMarker {
			if !inst.applyMarkerBarrier(r.SCN, cv) {
				return false
			}
			continue
		}
		if sampled && cv.Kind == redo.CVCommit {
			// The dispatcher is the one pipeline point holding the whole
			// record: promote the sampled span to a commit span and attach
			// the primary's origin wall clock from the frame extension.
			inst.freshness.Commit(uint64(r.SCN), uint64(cv.Txn), r.OriginNS)
		}
		w := inst.workerFor(cv)
		w.dispatched.Add(1)
		task := applyTask{scn: r.SCN, cv: cv}
		if sampled {
			task.enq = time.Now()
		}
		select {
		case w.ch <- task:
		case <-inst.stop:
			return false
		}
	}
	inst.recordsApplied.Add(1)
	// Observe before the frontier moves: once it covers r.SCN the coordinator
	// may publish past it and close the record's freshness span, and a stage
	// observed after that is lost to the span.
	if sampled {
		inst.trace.Observe(obs.StageDispatch, uint64(r.SCN), time.Since(start))
	}
	// Publish the dispatch frontier only after every CV is enqueued: the
	// coordinator's watermark proof depends on this ordering.
	inst.lastDispatched.Store(uint64(r.SCN))
	return true
}

// workerFor hashes a CV to its recovery worker: data CVs by DBA (§II.A),
// control CVs by transaction id (their "block" is the transaction table).
func (inst *Instance) workerFor(cv *redo.CV) *applyWorker {
	var h uint64
	if cv.Kind.IsControl() {
		h = rowstore.DBA(cv.Txn).Hash()
	} else {
		h = cv.DBA.Hash()
	}
	return inst.workers[h%uint64(len(inst.workers))]
}

// workerLoop is one recovery worker: apply the CV, mine it (§III.B), then
// lend a hand to any pending cooperative flush (§III.D.2).
func (inst *Instance) workerLoop(w *applyWorker) {
	defer inst.wg.Done()
	for {
		select {
		case <-inst.stop:
			return
		case t := <-w.ch:
			inst.applyCV(w.id, t.scn, t.cv)
			// Observed before the applied count moves, for the same reason as
			// the dispatch stage: the count is what lets a publication cover
			// t.scn.
			if !t.enq.IsZero() {
				inst.trace.Observe(obs.StageApply, uint64(t.scn), time.Since(t.enq))
			}
			w.appliedSCN.Store(uint64(t.scn))
			applied := w.applied.Add(1)
			inst.cvsApplied.Add(1)
			// A commit became publishable, or this worker stopped holding the
			// watermark back.
			if t.cv.Kind == redo.CVCommit || applied == w.dispatched.Load() {
				inst.pokeCoordinator()
			}
			if wl := inst.pendingWL.Load(); wl != nil {
				inst.flusher.DrainWorklink(wl, flushBatch)
			}
		}
	}
}

// applyCV applies one change vector to the physical replica and hands it to
// the mining component.
func (inst *Instance) applyCV(worker int, recSCN scn.SCN, cv *redo.CV) {
	switch cv.Kind {
	case redo.CVBegin:
		inst.txns.Begin(cv.Txn)
	case redo.CVCommit:
		inst.txns.Commit(cv.Txn, recSCN)
	case redo.CVAbort:
		inst.txns.Abort(cv.Txn)
	case redo.CVInsert:
		seg, ok := inst.db.Segment(cv.DBA.Obj())
		if !ok {
			break // object unknown (dropped or never replicated); skip
		}
		blk := seg.EnsureBlock(cv.DBA.Block())
		blk.ApplyVersionAt(recSCN, cv.Slot, cv.Txn, cv.Row, false)
		if tbl, ok := inst.db.TableForObj(cv.DBA.Obj()); ok && tbl.Index() != nil {
			tbl.Index().Put(cv.Row.Num(tbl.Schema().Col(tbl.IdentityCol).Slot()), rowstore.RowID{DBA: cv.DBA, Slot: cv.Slot})
		}
	case redo.CVUpdate:
		seg, ok := inst.db.Segment(cv.DBA.Obj())
		if !ok {
			break
		}
		seg.EnsureBlock(cv.DBA.Block()).ApplyVersionAt(recSCN, cv.Slot, cv.Txn, cv.Row, false)
	case redo.CVDelete:
		seg, ok := inst.db.Segment(cv.DBA.Obj())
		if !ok {
			break
		}
		// The identity index keeps the row's entry, as on the primary: a lookup
		// re-reads the chain by CR, and the delete may yet be rolled back.
		seg.EnsureBlock(cv.DBA.Block()).ApplyVersionAt(recSCN, cv.Slot, cv.Txn, "", true)
	}
	inst.miner.MineCV(worker, recSCN, cv)
}

// applyMarkerBarrier waits for all workers to drain, applies the catalog
// effect of a redo marker, and mines it into the DDL information table. It
// returns false when the instance is stopping.
func (inst *Instance) applyMarkerBarrier(recSCN scn.SCN, cv *redo.CV) bool {
	if !inst.waitWorkersDrained() {
		return false
	}
	m := cv.Marker
	switch m.Kind {
	case redo.MarkerCreateTable:
		if m.Spec != nil {
			// Idempotent under restart replay: the table may already exist.
			_, _ = inst.db.CreateTable(m.Spec)
		}
	case redo.MarkerTruncate:
		if tbl, err := inst.db.Table(m.Tenant, m.TableName); err == nil {
			if m.Partition == "" {
				for _, p := range tbl.Partitions() {
					p.Seg.Truncate()
				}
				if tbl.Index() != nil {
					tbl.Index().Clear()
				}
			} else if p, err := tbl.PartitionByName(m.Partition); err == nil {
				p.Seg.Truncate()
			}
		}
	case redo.MarkerDropColumn:
		if tbl, err := inst.db.Table(m.Tenant, m.TableName); err == nil {
			if ns, err := tbl.Schema().DropColumn(m.Column); err == nil {
				tbl.SetSchema(ns)
			}
		}
	case redo.MarkerAlterInMemory:
		if tbl, err := inst.db.Table(m.Tenant, m.TableName); err == nil && m.InMemory != nil {
			if m.Partition == "" {
				for _, p := range tbl.Partitions() {
					p.SetInMemory(*m.InMemory)
				}
			} else if p, err := tbl.PartitionByName(m.Partition); err == nil {
				p.SetInMemory(*m.InMemory)
			}
		}
	}
	inst.miner.MineCV(0, recSCN, cv)
	return true
}

// waitWorkersDrained blocks until every worker has applied everything
// dispatched to it; false when stopping.
func (inst *Instance) waitWorkersDrained() bool {
	for inst.applyBacklog() > 0 {
		select {
		case <-inst.stop:
			return false
		case <-time.After(20 * time.Microsecond):
		}
	}
	return true
}

// applyBacklog returns the change vectors dispatched to the recovery workers
// and not yet applied: 0 exactly when every worker has drained.
func (inst *Instance) applyBacklog() int64 {
	ws := inst.workersRef.Load()
	if ws == nil {
		return 0
	}
	var depth int64
	for _, w := range *ws {
		a := w.applied.Load() // first: a stale count overstates, never hides, a backlog
		depth += w.dispatched.Load() - a
	}
	return depth
}

// The coordinator's pacing. A schedule grants one advancement per gap, the gap
// being advanceGapFactor times the running mean of an advancement's cost (at
// most CheckpointInterval): over any stretch of sustained load advancing takes
// no more than 1/advanceGapFactor of the time. Up to advanceBurst advancements
// may run ahead of the schedule, so the few records of one idle-time
// transaction are published as they are applied, without a sub-millisecond
// timer between them (which an idle Go runtime stretches to a millisecond).
const (
	advanceGapFactor = 4
	advanceBurst     = 8
)

// pokeCoordinator tells the recovery coordinator that the apply watermark may
// have moved. It never blocks; pokes that find one pending collapse into it.
func (inst *Instance) pokeCoordinator() {
	select {
	case inst.coordWake <- struct{}{}:
	default:
	}
}

// coordinatorLoop is the recovery coordinator: it establishes a new
// consistency point (§II.A) — flushing pending invalidations first (§III.D)
// and applying mined DDL (§III.G) — and publishes it as the QuerySCN under
// the quiesce lock (§III.A). It is driven by work: the workers poke it when a
// commit is applied or a queue drains and the merger when it runs out of redo,
// so an idle pipeline publishes a commit as soon as it is applied. Under load
// the pokes that arrive during an advancement collapse into one and the pacing
// above spaces the advancements out: chop, drain and barrier do not tax
// saturated apply, and population is not starved of the quiesce lock. The
// CheckpointInterval ticker is only the heartbeat that bounds the gap should
// a poke ever be missing.
func (inst *Instance) coordinatorLoop() {
	defer inst.wg.Done()
	heartbeat := time.NewTicker(inst.cfg.CheckpointInterval)
	defer heartbeat.Stop()
	var (
		cost time.Duration // running mean of an advancement's wall time
		gap  time.Duration // the schedule's period
		due  time.Time     // when the schedule grants the next advancement
	)
	for {
		select {
		case <-inst.stop:
			return
		case <-inst.coordWake:
		case <-heartbeat.C:
		}
		if wait := time.Until(due) - (advanceBurst-1)*gap; wait > 0 {
			select {
			case <-inst.stop:
				return
			case <-time.After(wait):
			}
		}
		start := time.Now()
		if !inst.advance() {
			continue
		}
		end := time.Now()
		cost += (end.Sub(start) - cost) / 8
		gap = min(advanceGapFactor*cost, inst.cfg.CheckpointInterval)
		if due.Before(end) {
			due = end // idle time earns no more than the burst
		}
		due = due.Add(gap)
	}
}

// computeWatermark returns the highest SCN S such that every change vector
// with SCN <= S has been applied. It leapfrogs: workers apply at different
// rates, so consecutive watermarks can skip many SCNs (§II.A).
func (inst *Instance) computeWatermark() scn.SCN {
	l := scn.SCN(inst.lastDispatched.Load())
	w := l
	for _, wk := range inst.workers {
		// Read applied before dispatched: a stale-low applied makes the
		// pending check conservative, never optimistic.
		a := wk.applied.Load()
		d := wk.dispatched.Load()
		if a != d {
			// The worker still has queued CVs; everything strictly below its
			// last applied SCN is in (a record's CVs share one SCN, so the
			// applied SCN itself may be partially applied).
			as := scn.SCN(wk.appliedSCN.Load())
			if as > 0 {
				as--
			}
			if as < w {
				w = as
			}
		}
	}
	if prev := scn.SCN(inst.watermark.Load()); w < prev {
		return prev
	}
	inst.watermark.Store(uint64(w))
	return w
}

// advance performs one QuerySCN advancement to the current apply watermark; it
// reports whether there was anything to advance to.
func (inst *Instance) advance() bool {
	target := inst.computeWatermark()
	if target <= inst.QuerySCN() {
		return false
	}
	inst.advanceTo(target, true)
	return true
}

// advanceTo is the one QuerySCN advancement body: chop the commit table at
// target (an apply watermark), flush the worklink, wait for the sink's
// acknowledgement, apply pending DDL to the column store, and publish target
// as the new QuerySCN. live is false only for terminal recovery, which runs on
// a stopped pipeline: no cooperative flush helpers exist and the stop channel
// is already closed, so the caller drains the worklink alone and to the end.
// A live advancement is abandoned without publishing when the instance stops.
//
// The quiesce lock is held for the whole advancement (§III.A): the paper's
// Quiesce Period starts when the coordinator is "about to publish a new
// QuerySCN". Holding it across the flush is what makes the population
// placeholder protocol sound — a population snapshot can be captured either
// before the advancement (its placeholder is then installed before this
// flush runs, so it receives these invalidations) or after publication (the
// flushed commits are then already part of its Consistent Read data), but
// never in between, where a freshly installed placeholder could miss a flush
// that this advancement has already passed.
func (inst *Instance) advanceTo(target scn.SCN, live bool) {
	start := time.Now()
	inst.quiesce.Lock()
	defer inst.quiesce.Unlock()
	wl := inst.commits.Chop(target)
	if wl.Len() > 0 {
		if live {
			inst.pendingWL.Store(wl)
		}
		inst.flusher.DrainWorklink(wl, flushBatch)
		// A cooperative helper may still be flushing the batch it claimed.
		if live {
			select {
			case <-wl.Done():
			case <-inst.stop:
				return
			}
		} else {
			<-wl.Done()
		}
		inst.pendingWL.Store(nil)
	}
	// Readers sharing this consistency point acknowledge every shipped
	// invalidation group before it becomes visible anywhere.
	inst.flusher.Barrier()
	var events []*MarkerEvent
	for _, m := range inst.ddl.Collect(target) {
		events = append(events, &MarkerEvent{Marker: m, DroppedObjs: inst.applyDDLToIMCS(m)})
	}
	inst.querySCN.Store(uint64(target))
	inst.advances.Add(1)
	inst.notifyPublished()
	// Close every sampled span this consistency point covers. All pipeline
	// work for SCNs <= target finished above (the worklink drained before the
	// store), so the spans are final.
	inst.freshness.Publish(uint64(target), start.UnixNano())
	if hook := inst.onPublish.Load(); hook != nil {
		(*hook)(target, events)
	}
	// Publish latency: the full advancement (chop + flush + DDL + publish),
	// i.e. the quiesce-period cost per consistency point.
	inst.trace.Observe(obs.StagePublish, uint64(target), time.Since(start))
}

// applyDDLToIMCS drops the IMCUs of objects whose definition changed
// (§III.G) and returns the affected object ids.
func (inst *Instance) applyDDLToIMCS(m *redo.Marker) []rowstore.ObjID {
	var objs []rowstore.ObjID
	collect := func(partition string) {
		tbl, err := inst.db.Table(m.Tenant, m.TableName)
		if err != nil {
			return
		}
		if partition == "" {
			for _, p := range tbl.Partitions() {
				objs = append(objs, p.Seg.Obj())
			}
		} else if p, err := tbl.PartitionByName(partition); err == nil {
			objs = append(objs, p.Seg.Obj())
		}
	}
	switch m.Kind {
	case redo.MarkerTruncate:
		collect(m.Partition)
	case redo.MarkerDropColumn:
		collect("")
	case redo.MarkerAlterInMemory:
		if m.InMemory == nil || !m.InMemory.Enabled {
			collect(m.Partition)
		}
	case redo.MarkerCreateTable:
		// Nothing populated yet.
	}
	for _, obj := range objs {
		inst.store.DropObject(obj)
	}
	return objs
}
