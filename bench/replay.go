package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"dbimadg/internal/primary"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/service"
	"dbimadg/internal/sqlmini"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
	"dbimadg/internal/txn"
	"dbimadg/internal/workload"
)

// The catch-up log's OLTP mix: the paper's update-insert mix without the
// fetches, which write no redo.
const (
	catchupInsertPct = 38
	catchupUpdatePct = 62
	// sampleEvery is the period at which the replay sampler reads the
	// standby's counters while the suffix is being applied.
	sampleEvery = 5 * time.Millisecond
	// minReplays is how many times the log is replayed at least, however
	// short the catch-up stage: the apply rate and the set-up time are
	// medians over replays.
	minReplays = 3
)

// suffixTxns sizes the OLTP part of the archived log: as many single-row
// transactions as the table has rows, so a replay touches the same share of
// the table at any scale.
func suffixTxns(rows int) int { return max(rows, 100) }

// archive is the saturated-apply harness's input: a standalone primary writes
// the load (the prefix) and then suffixTxns OLTP transactions (the suffix),
// once per run, with no standby attached.
//
// The log is then replayed several times, each time into a fresh standby: the
// prefix is the replay's set-up, the suffix is handed to the transport at once
// and timed until its last commit is visible. Nothing generates load while the
// standby applies, so the rate is the pipeline's ceiling. Every replay starts
// from the same state (a just-populated store and a just-collected heap) and
// applies the same records, so replays repeat: the counters exactly, and the
// collector's cycles at about the same points of the suffix.
type archive struct {
	pri    *primary.Cluster
	tbl    *rowstore.Table // primary catalog
	log    *redo.Stream
	prefix int // records of the load
	gen    *oltpGen
	genSt  genStats
}

// genStats is what log generation observed: the primary alone, one
// closed-loop client.
type genStats struct {
	span              time.Duration
	attempted, failed int64
	committed         int64
	records           int
	redoBytes         int64
}

// writeArchive loads the table on a standalone primary and then commits the
// suffix's transactions, timing the latter.
func writeArchive(rows int, seed int64, tb *spanBuf) (*archive, error) {
	a := &archive{pri: primary.NewCluster(1, 0)}
	inst0 := a.pri.Instance(0)
	a.log = inst0.Stream()
	begin := func() (*txn.Txn, error) { return inst0.Begin(), nil }
	var err error
	if a.tbl, err = inst0.CreateTable(workload.WideTableSpec(tableName, tenant)); err != nil {
		return nil, err
	}
	if err := loadRows(begin, a.tbl, rows, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	attr := rowstore.InMemoryAttr{Enabled: true, Service: service.StandbyOnly}
	if err := inst0.AlterInMemory(tenant, tableName, "", attr); err != nil {
		return nil, err
	}
	a.prefix = a.log.Len()
	a.gen = &oltpGen{
		begin: begin,
		tbl:   a.tbl, rng: rand.New(rand.NewSource(seed + 2)), nextID: int64(rows),
		insertPct: catchupInsertPct, updatePct: catchupUpdatePct,
	}

	st := &a.genSt
	bytes0 := a.log.Bytes()
	start := time.Now()
	for i := 0; i < suffixTxns(rows); i++ {
		opID := tb.op()
		root := tb.start("oltp_op", -1, opID)
		_, _, err := a.gen.op(tb, root, opID)
		tb.end(root)
		st.attempted++
		if err != nil {
			st.failed++
			continue
		}
		st.committed++
	}
	st.span = time.Since(start)
	st.records = a.log.Len() - a.prefix
	st.redoBytes = a.log.Bytes() - bytes0
	return a, nil
}

// suffix returns the OLTP records of the log: what one replay is timed on.
func (a *archive) suffix() []*redo.Record {
	out := make([]*redo.Record, a.log.Len()-a.prefix)
	for i := range out {
		out[i], _ = a.log.At(a.prefix + i)
	}
	return out
}

// replay is one fresh standby being fed the archive.
type replay struct {
	a    *archive
	arch *redo.Stream // what the standby's transport serves
	sent int          // records of the log already handed to arch
	srv  *transport.Server
	rcv  *transport.Receiver // nil over the in-process transport
	inst *standby.Instance
	sTbl *rowstore.Table // standby catalog

	setup   time.Duration
	scnMono scnWatch
}

// openReplay starts a fresh standby, hands it the load over loopback TCP (or,
// for the in-process probe, with neither codec nor socket) and waits until it
// has applied it and populated its column store. That is one set-up; like the
// timed part of a replay it starts from a just-collected heap, or what the
// standby before it left behind would be collected at this one's expense.
func (a *archive) openReplay(traced, inProc bool) (*replay, error) {
	runtime.GC()
	start := time.Now()
	r := &replay{a: a, arch: redo.NewStream(a.log.Thread())}
	var src transport.Source = transport.NewInProc(r.arch)
	if !inProc {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		r.srv = transport.NewServer(ln, r.arch)
		if r.rcv, err = transport.Connect(r.srv.Addr(), []uint16{r.arch.Thread()}, 0); err != nil {
			_ = r.srv.Close() // report the connect error
			return nil, err
		}
		src = r.rcv
	}
	cfg := standby.Config{}
	if traced {
		cfg.FreshnessSampleEvery = 1
	}
	r.inst = standby.New(cfg)
	r.inst.Attach(src)
	r.inst.Start()
	last := r.handOver(a.prefix)
	if !r.inst.WaitForSCN(last, syncWait) || !r.inst.Engine().WaitIdle(syncWait) {
		r.close()
		return nil, fmt.Errorf("replay set-up: standby did not catch up and populate")
	}
	var err error
	if r.sTbl, err = r.inst.DB().Table(tenant, tableName); err != nil {
		r.close()
		return nil, err
	}
	r.setup = time.Since(start)
	return r, nil
}

// handOver appends the log's records up to upTo to the served stream, all at
// once, and returns the last SCN handed over.
func (r *replay) handOver(upTo int) scn.SCN {
	for ; r.sent < upTo; r.sent++ {
		rec, _ := r.a.log.At(r.sent)
		r.arch.Append(rec)
	}
	return r.arch.LastSCN()
}

func (r *replay) close() {
	r.arch.Close()
	if r.rcv != nil {
		_ = r.rcv.Close() // shutting down; nothing to do about a close error
		_ = r.srv.Close()
	}
	r.inst.Stop()
}

// executor builds a scan executor over the standby tuned like the instance's
// own sessions; with no stores it scans the row store only.
func (r *replay) executor(withStore bool) *scanengine.Executor {
	ex := scanengine.NewExecutor(r.inst.Txns())
	if withStore {
		ex = scanengine.NewExecutor(r.inst.Txns(), r.inst.Store())
	}
	ex.MorselRows, ex.DefaultParallel = r.inst.ScanTuning()
	return ex
}

func compileAndRun(ex *scanengine.Executor, tbl *rowstore.Table, at func() scn.SCN) queryAt {
	return func(sql string, b binds) (*scanengine.Result, error) {
		q, err := sqlmini.ParseAndCompile(sql, tbl, b)
		if err != nil {
			return nil, err
		}
		return ex.Run(q, at())
	}
}

// backend scans the bare standby at its current QuerySCN.
func (r *replay) backend() *scanBackend {
	ex := r.executor(true)
	return &scanBackend{
		table: r.sTbl,
		query: compileAndRun(ex, r.sTbl, r.inst.QuerySCN),
		profiled: func(q *scanengine.Query) (*scanengine.Result, *scanengine.Profile, error) {
			return ex.RunProfiled(q, r.inst.QuerySCN())
		},
	}
}

// verify is the gate at the end of a replay.
func (r *replay) verify(in *scanInputs) error {
	last := r.a.log.LastSCN()
	if !r.inst.WaitForSCN(last, syncWait) {
		return fmt.Errorf("replay: standby did not reach SCN %d", last)
	}
	at := func() scn.SCN { return last }
	priEx := scanengine.NewExecutor(r.a.pri.Txns())
	err := threeWay(
		compileAndRun(r.executor(true), r.sTbl, at),
		compileAndRun(r.executor(false), r.sTbl, at),
		compileAndRun(priEx, r.a.tbl, at), in)
	if err != nil {
		return err
	}
	if r.scnMono.violations > 0 {
		return fmt.Errorf("replay: QuerySCN went back %d times", r.scnMono.violations)
	}
	return nil
}

// catchupStats is what the timed part of one replay observed, or of several
// once merged.
type catchupStats struct {
	span       time.Duration // hand-over to visible
	shipSpan   time.Duration // hand-over to last record received
	rates      []float64     // change vectors applied per second, per replay
	cvs, recs  int64
	advances   int64
	mined      int64
	flushed    int64
	coarse     int64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64

	dispatchGap samples // DispatchedSCN - AppliedWatermark, in SCNs
	journalTxns samples
	commitPend  samples
	scans       *scanStats // the client beside the apply, if any

	// rcv is the receiver's totals at the end of one replay, the load
	// included; merge leaves it alone.
	rcv receiverCounts
}

type receiverCounts struct{ records, bytes, frames, reconnects, corrupt int64 }

func (st *catchupStats) merge(o *catchupStats) {
	st.span += o.span
	st.shipSpan += o.shipSpan
	st.rates = append(st.rates, o.rates...)
	st.cvs += o.cvs
	st.recs += o.recs
	st.advances += o.advances
	st.mined += o.mined
	st.flushed += o.flushed
	st.coarse += o.coarse
	st.mallocs += o.mallocs
	st.allocBytes += o.allocBytes
	st.gcCycles += o.gcCycles
	st.gcPauseNS += o.gcPauseNS
	st.dispatchGap = append(st.dispatchGap, o.dispatchGap...)
	st.journalTxns = append(st.journalTxns, o.journalTxns...)
	st.commitPend = append(st.commitPend, o.commitPend...)
	if o.scans != nil {
		if st.scans == nil {
			st.scans = &scanStats{}
		}
		st.scans.merge(o.scans)
	}
}

// catchUp hands the suffix to the transport at once and runs the clock until
// the standby has published its last SCN. With scans, one closed-loop scan
// client issues queries for exactly as long as redo is being applied.
//
// The heap is collected just before the clock starts and the collector runs
// as usual inside it, so the rate includes what the apply path's garbage
// costs, and every replay meets its collections at about the same points.
func (r *replay) catchUp(scans bool, in *scanInputs, tr *tracer) (*catchupStats, error) {
	st := &catchupStats{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wantRecs := int64(r.a.log.Len())
	tb := tr.buf()
	scanBuf := tr.buf()

	runtime.GC()
	before := r.inst.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.sample(st, start, wantRecs, stop)
	}()
	if scans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.scans = runScans(r.backend(), in, stop, scanBuf, false)
		}()
	}
	last := r.handOver(r.a.log.Len())
	ok := r.inst.WaitForSCN(last, syncWait)
	end := time.Now()
	close(stop)
	wg.Wait()
	if !ok {
		return nil, fmt.Errorf("catch-up: standby did not reach SCN %d", last)
	}
	runtime.ReadMemStats(&m1)
	after := r.inst.Stats()

	st.span = end.Sub(start)
	if st.shipSpan == 0 { // the sampler never saw the last record arrive before it was visible
		st.shipSpan = st.span
	}
	shipped := start.Add(st.shipSpan)
	op := tb.op()
	root := tb.startAt("replay", -1, op, start)
	tb.endAt(tb.startAt("ship", root, op, start), shipped)
	tb.endAt(tb.startAt("apply_visible", root, op, start), end)
	tb.endAt(root, end)

	st.cvs = after.CVsApplied - before.CVsApplied
	st.recs = after.RecordsApplied - before.RecordsApplied
	st.rates = []float64{float64(st.cvs) / st.span.Seconds()}
	st.advances = after.QuerySCNAdvances - before.QuerySCNAdvances
	st.mined = after.MinedRecords - before.MinedRecords
	st.flushed = after.FlushedRecords - before.FlushedRecords
	st.coarse = after.CoarseInvals - before.CoarseInvals
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.gcCycles = m1.NumGC - m0.NumGC
	st.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	if st.scans != nil {
		st.scans.span = st.span
	}
	if rcv := r.rcv; rcv != nil {
		st.rcv = receiverCounts{rcv.RecordsReceived(), rcv.BytesReceived(), rcv.FramesRead(), rcv.Reconnects(), rcv.CorruptFrames()}
	}
	return st, nil
}

// sample reads the standby's gauges every sampleEvery while the suffix is
// being applied, and notes in st.shipSpan when its last record arrived.
func (r *replay) sample(st *catchupStats, start time.Time, wantRecs int64, stop <-chan struct{}) {
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			s := r.inst.Stats()
			r.scnMono.observe(s.QuerySCN)
			if r.rcv != nil && st.shipSpan == 0 && r.rcv.RecordsReceived() >= wantRecs {
				st.shipSpan = time.Since(start)
			}
			st.dispatchGap = append(st.dispatchGap, int64(s.DispatchedSCN-s.AppliedWatermark))
			st.journalTxns = append(st.journalTxns, int64(s.JournalTxns))
			st.commitPend = append(st.commitPend, int64(s.CommitTablePend))
		}
	}
}
