package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"dbimadg/internal/core"
	"dbimadg/internal/imcs"
	"dbimadg/internal/obs"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/sqlmini"
	"dbimadg/internal/transport"
)

// Probes run only in the traced run, after the measured stages and the
// verification, on the quiesced deployment. Each times one layer's public
// function single-threaded on a sample of the workload's own inputs.

// mallocsDuring returns the heap objects and bytes fn allocated.
func mallocsDuring(fn func()) (objects, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// liveLayer holds the per-layer readings taken on the live deployment.
type liveLayer struct {
	store     imcs.StoreStats
	engine    imcs.EngineStats
	freshness obs.FreshnessSummary

	allocsPerQ, kbPerQ           float64
	q1P50, serialQ1P50, rowQ1P50 float64 // ns
	parseCompileNS               float64
	buildNSPerUnit, aggNSPerRow  float64
}

const (
	probeScanRounds = 20
	probeQ1Repeats  = 5
	probeParseReps  = 200
	probeBuildReps  = 3
	probeAggPasses  = 20
)

func (l *live) layer(in *scanInputs) *liveLayer {
	master := l.c.StandbyMaster()
	ll := &liveLayer{
		store:     master.Store().Stats(),
		engine:    master.Engine().Stats(),
		freshness: l.c.Freshness().Summary(),
	}
	be := l.backend()

	// Heap cost of a query of the mix, with nothing else running.
	const queries = probeScanRounds * numClasses
	objs, bytes := mallocsDuring(func() {
		for i := 0; i < queries; i++ {
			class := i % numClasses
			_, _ = be.query(classSQL[class], in[class][(i/numClasses)%len(in[class])]) // the measured stages already counted failures
		}
	})
	ll.allocsPerQ = float64(objs) / queries
	ll.kbPerQ = float64(bytes) / 1024 / queries

	// Q1 three ways: as sessions run it, on one worker, and with no column
	// store at all (the paper's "without DBIM" baseline).
	sby := l.c.StandbySession()
	rowEx := scanengine.NewExecutor(master.Txns())
	var hybrid, serial, rowStore samples
	for rep := 0; rep < probeQ1Repeats; rep++ {
		for _, b := range in[classQ1] {
			q, err := sqlmini.ParseAndCompile(classSQL[classQ1], l.sTbl, b)
			if err != nil {
				continue // the same statement compiled in every measured query
			}
			t := time.Now()
			_, _ = sby.Query(q)
			hybrid.add(time.Since(t))
			one := *q
			one.Parallel = 1
			t = time.Now()
			_, _ = sby.Query(&one)
			serial.add(time.Since(t))
			t = time.Now()
			_, _ = rowEx.Run(q, master.QuerySCN())
			rowStore.add(time.Since(t))
		}
	}
	ll.q1P50 = hybrid.sorted().quantile(0.5)
	ll.serialQ1P50 = serial.sorted().quantile(0.5)
	ll.rowQ1P50 = rowStore.sorted().quantile(0.5)

	// Parse and compile, per statement of the mix.
	const stmts = probeParseReps * numClasses
	t := time.Now()
	for i := 0; i < stmts; i++ {
		class := i % numClasses
		_, _ = sqlmini.ParseAndCompile(classSQL[class], l.sTbl, in[class][0])
	}
	ll.parseCompileNS = float64(time.Since(t)) / stmts

	// Building one IMCU from the row store, and the masked-aggregate kernel
	// over one live unit's n2 column.
	part := l.sTbl.Partitions()[0]
	units := master.Store().Units(part.Seg.Obj())
	if len(units) == 0 {
		return ll
	}
	target := imcs.Target{Seg: part.Seg, Table: l.sTbl}
	var builds samples
	for i := 0; i < probeBuildReps; i++ {
		t := time.Now()
		master.Engine().BuildIMCU(target, units[0])
		builds.add(time.Since(t))
	}
	ll.buildNSPerUnit = builds.sorted().quantile(0.5)

	if imcu, _, usable := units[0].ScanView(); usable && imcu != nil {
		schema := l.sTbl.Schema()
		col := imcu.NumCol(schema.Col(schema.ColIndex("n2")).Slot())
		const batch = 1024
		match := make([]uint64, batch/64)
		for i := range match {
			match[i] = ^uint64(0)
		}
		scratch := make([]int64, batch)
		var sink int64
		t := time.Now()
		for pass := 0; pass < probeAggPasses; pass++ {
			for base := 0; base < imcu.Rows(); base += batch {
				n := min(batch, imcu.Rows()-base)
				a := col.AggMasked(match, base, 0, n, scratch)
				sink += a.Count
			}
		}
		if sink > 0 {
			ll.aggNSPerRow = float64(time.Since(t)) / float64(sink)
		}
	}
	return ll
}

// replayLayer holds the per-layer readings the probes took on the archive.
type replayLayer struct {
	codecRecords                    int
	encodeNSPerRec, decodeNSPerRec  float64
	decodeAllocsPerRec, bytesPerRec float64
	shipOnlyRecsPerS                float64
	inprocCVsPerS                   float64
	inprocCVs                       int64
	mineNSPerCV, mineAllocsPerCV    float64
	minedCVs                        int
	commitInsertNS                  float64
	flushNSPerRec                   float64
	probeFlushed                    int64
	cvsPerRec                       float64
	shipOnlyRecords                 int
}

const (
	probeRecords       = 20000 // OLTP records fed to the codec and miner probes
	probeCommitInserts = 200000
)

// allEnabled is the mining policy of the probes: every object is enabled.
type allEnabled struct{}

func (allEnabled) Enabled(rowstore.ObjID) bool { return true }

func (a *archive) layer(in *scanInputs) (*replayLayer, error) {
	rl := &replayLayer{}
	suffix := a.suffix()
	sample := suffix[:min(len(suffix), probeRecords)]

	// redo: encode into a reused buffer, decode from private copies.
	encoded := make([][]byte, len(sample))
	var totalBytes, totalCVs int
	for i, rec := range sample {
		encoded[i] = redo.AppendRecord(nil, rec)
		totalBytes += len(encoded[i])
		totalCVs += len(rec.CVs)
	}
	rl.codecRecords = len(sample)
	rl.bytesPerRec = float64(totalBytes) / float64(len(sample))
	rl.cvsPerRec = float64(totalCVs) / float64(len(sample))
	var buf []byte
	t := time.Now()
	for _, rec := range sample {
		buf = redo.AppendRecord(buf[:0], rec)
	}
	rl.encodeNSPerRec = float64(time.Since(t)) / float64(len(sample))
	var decodeErr error
	t = time.Now()
	objs, _ := mallocsDuring(func() {
		for _, b := range encoded {
			if _, err := redo.DecodeRecord(b); err != nil {
				decodeErr = err
			}
		}
	})
	rl.decodeNSPerRec = float64(time.Since(t)) / float64(len(sample))
	rl.decodeAllocsPerRec = float64(objs) / float64(len(sample))
	if decodeErr != nil {
		return nil, fmt.Errorf("codec probe: %w", decodeErr)
	}

	// transport: ship the suffix server to receiver with no standby attached.
	if err := rl.shipOnly(suffix); err != nil {
		return nil, err
	}

	// standby: one more replay, through the in-process transport — apply,
	// mine and flush without codec or socket, timed exactly as the replays
	// over TCP are.
	r, err := a.openReplay(false, true)
	if err != nil {
		return nil, fmt.Errorf("in-process probe: %w", err)
	}
	defer r.close()
	st, err := r.catchUp(false, in, nil)
	if err != nil {
		return nil, fmt.Errorf("in-process probe: %w", err)
	}
	rl.inprocCVs = st.cvs
	rl.inprocCVsPerS = st.rates[0]

	// core: mine the sample's change vectors into a private journal and
	// commit table, then chop and flush them into that standby's store (whose
	// rows these transactions already invalidated during the replay).
	journal := core.NewJournal(0, 1)
	commits := core.NewCommitTable(4)
	miner := core.NewMiner(journal, commits, core.NewDDLTable(), allEnabled{})
	t = time.Now()
	objs, _ = mallocsDuring(func() {
		for _, rec := range sample {
			for i := range rec.CVs {
				miner.MineCV(0, rec.SCN, &rec.CVs[i])
			}
		}
	})
	rl.minedCVs = totalCVs
	rl.mineNSPerCV = float64(time.Since(t)) / float64(totalCVs)
	rl.mineAllocsPerCV = float64(objs) / float64(totalCVs)
	flusher := core.NewFlusher(journal, r.inst.Store(), imcs.HomeMap{Instances: 1}, 0, 0, nil)
	wl := commits.Chop(sample[len(sample)-1].SCN)
	t = time.Now()
	flusher.DrainWorklink(wl, 8)
	if rl.probeFlushed = flusher.FlushedRecords(); rl.probeFlushed > 0 {
		rl.flushNSPerRec = float64(time.Since(t)) / float64(rl.probeFlushed)
	}
	ct := core.NewCommitTable(4)
	t = time.Now()
	for i := 1; i <= probeCommitInserts; i++ {
		ct.Insert(&core.CommitNode{Txn: scn.TxnID(i), CommitSCN: scn.SCN(i)})
		if i%1024 == 0 {
			ct.Chop(scn.SCN(i))
		}
	}
	rl.commitInsertNS = float64(time.Since(t)) / probeCommitInserts
	return rl, nil
}

func (rl *replayLayer) shipOnly(recs []*redo.Record) error {
	stream := redo.NewStream(recs[0].Thread)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := transport.NewServer(ln, stream)
	defer srv.Close()
	rcv, err := transport.Connect(srv.Addr(), []uint16{stream.Thread()}, 0)
	if err != nil {
		return err
	}
	defer rcv.Close()
	defer stream.Close()
	runtime.GC() // as the replays do before their clock starts
	t := time.Now()
	for _, rec := range recs {
		stream.Append(rec)
	}
	for deadline := t.Add(syncWait); rcv.RecordsReceived() < int64(len(recs)); {
		if time.Now().After(deadline) {
			return fmt.Errorf("ship-only probe: received %d of %d records", rcv.RecordsReceived(), len(recs))
		}
		time.Sleep(200 * time.Microsecond)
	}
	rl.shipOnlyRecords = len(recs)
	rl.shipOnlyRecsPerS = float64(len(recs)) / time.Since(t).Seconds()
	return nil
}
