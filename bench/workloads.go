package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// plan says how a workload spends its measured seconds. Every run has the
// same three stages, because the driver has every workload report every
// end-to-end metric (see README, Shape of a run):
//
//	scan     one closed-loop scan client on the live standby, no DML
//	paced    the open-loop 4 000 ops/s OLTP client on the live primary,
//	         sampled for commit-to-visible
//	catchup  the replay harness: the archived log replayed into fresh
//	         standbys, each replay timed from hand-over to visible
//
// A workload is which stage gets most of the time and what runs beside it.
type plan struct {
	// Shares of the measured seconds. The reported scan client runs alone
	// (scanShare > 0) or beside the paced stage (pacedScans), never both.
	scanShare, pacedShare, catchupShare float64
	pacedScans, catchupScans            bool
}

var workloadNames = []string{"scan_static", "redo_catchup", "htap_paced", "htap_saturated"}

var plans = map[string]plan{
	"scan_static": {
		scanShare: 0.5, pacedShare: 0.125, catchupShare: 0.375,
	},
	"redo_catchup": {
		scanShare: 0.225, pacedShare: 0.125, catchupShare: 0.65,
	},
	"htap_paced": {
		pacedShare: 0.625, pacedScans: true, catchupShare: 0.375,
	},
	"htap_saturated": {
		scanShare: 0.225, pacedShare: 0.125, catchupShare: 0.65, catchupScans: true,
	},
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	rows     int
	outDir   string // where the result and trace files go
}

func (c runConfig) stage(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// observed is everything a run measured, before it is folded into metrics.
type observed struct {
	cfg       runConfig
	setups    []time.Duration // one per replay
	liveSetup time.Duration

	scans *scanStats // the scan client whose numbers the workload reports end to end
	oltp  *oltpStats
	gen   *genStats
	// cu merges the timed parts of every replay; cu.scans is the scan client
	// that ran beside them (htap_saturated). Its numbers are per-layer only:
	// which of apply and scans two saturated cores favour varied by a third
	// between runs. first is the first replay alone: the counts that depend
	// on the seed only.
	cu, first *catchupStats

	retries                       int64 // row-lock retries of both generators
	liveHeapMB                    float64
	replayHeapMB                  float64 // after the first replay
	staticChecked, staticMismatch int64
	verifyErr                     error

	liveLayer   *liveLayer
	replayLayer *replayLayer
	tracer      *tracer
}

func (o *observed) attempted() int64 {
	n := o.oltp.attempted + o.gen.attempted + o.cu.recs + o.scans.queries() + o.scans.failed
	if b := o.cu.scans; b != nil {
		n += b.queries() + b.failed
	}
	return max(n, 1)
}

func (o *observed) failed() int64 {
	if o.verifyErr != nil || o.staticMismatch > 0 {
		// A failed verification counts every operation as failed.
		return o.attempted()
	}
	n := o.oltp.failed + o.gen.failed + o.scans.failed
	if b := o.cu.scans; b != nil {
		n += b.failed
	}
	return n
}

// runWorkload executes one workload in this process.
func runWorkload(cfg runConfig) (*observed, error) {
	p, ok := plans[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	o := &observed{cfg: cfg}
	if cfg.traced {
		o.tracer = newTracer()
	}
	in := drawScanInputs(cfg.seed)
	if err := o.runLive(p, in); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	if err := o.runReplays(p, in); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return o, nil
}

// heapAfterGC returns the heap in use after a collection, in MB: what the
// open deployment holds on to, without the garbage a run's timing decides.
func heapAfterGC() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func (o *observed) noteVerify(err error) {
	if err != nil && o.verifyErr == nil {
		o.verifyErr = err
	}
}

// runLive runs the scan and paced stages on the root-API deployment.
func (o *observed) runLive(p plan, in *scanInputs) error {
	cfg := o.cfg
	l, err := openLive(cfg.rows, cfg.seed, cfg.traced)
	if err != nil {
		return err
	}
	defer l.c.Close()
	o.liveSetup = l.setup
	be := l.backend()

	if d := cfg.stage(p.scanShare); d > 0 {
		at, err := l.quiesce()
		if err != nil {
			return err
		}
		ref, err := referenceDigests(l.pureAt(at), in)
		if err != nil {
			return err
		}
		stop := make(chan struct{})
		time.AfterFunc(d, func() { close(stop) })
		o.scans = runScans(be, in, stop, o.tracer.buf(), true)
		o.staticChecked = int64(len(o.scans.digests))
		o.staticMismatch = checkDigests(ref, o.scans.digests)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if p.pacedScans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.scans = runScans(be, in, stop, o.tracer.buf(), false)
		}()
	}
	o.oltp, err = l.runPaced(cfg.stage(p.pacedShare), o.tracer.buf())
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	o.retries += l.gen.retries

	o.noteVerify(l.verify(in))
	o.liveHeapMB = heapAfterGC()
	if cfg.traced {
		o.liveLayer = l.layer(in)
	}
	return nil
}

// runReplays runs the catch-up stage: the archive is written once and then
// replayed into one fresh standby after another until the stage's seconds
// are spent, minReplays times at least.
func (o *observed) runReplays(p plan, in *scanInputs) error {
	cfg := o.cfg
	a, err := writeArchive(cfg.rows, cfg.seed, o.tracer.buf())
	if err != nil {
		return err
	}
	defer a.pri.Close()
	o.gen = &a.genSt
	o.retries += a.gen.retries

	o.cu = &catchupStats{}
	budget := cfg.stage(p.catchupShare)
	for start := time.Now(); len(o.setups) < minReplays || time.Since(start) < budget; {
		if err := o.replayOnce(a, p.catchupScans, in); err != nil {
			return err
		}
	}
	if cfg.traced {
		if o.replayLayer, err = a.layer(in); err != nil {
			return err
		}
	}
	return nil
}

func (o *observed) replayOnce(a *archive, scans bool, in *scanInputs) error {
	r, err := a.openReplay(o.cfg.traced, false)
	if err != nil {
		return err
	}
	defer r.close()
	o.setups = append(o.setups, r.setup)
	st, err := r.catchUp(scans, in, o.tracer)
	if err != nil {
		return err
	}
	if o.first == nil {
		o.first = st
	}
	o.cu.merge(st)
	o.noteVerify(r.verify(in))
	if o.replayHeapMB == 0 {
		// Once repopulation has settled: units being rebuilt hold their
		// builders' memory too, for as long as that takes.
		if !r.inst.Engine().WaitIdle(syncWait) {
			return fmt.Errorf("replay: repopulation did not settle")
		}
		o.replayHeapMB = heapAfterGC()
	}
	return nil
}
