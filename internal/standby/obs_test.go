package standby_test

import (
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbimadg/internal/obs"
	"dbimadg/internal/primary"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
)

// TestObservabilityEndToEnd drives committed transactions through a standby
// fed over TCP (so the ship stage fires) and asserts that every pipeline
// stage recorded trace events, that the derived apply-lag gauge was observed
// nonzero during the load, and that the /metrics endpoint exposes the
// counters, stage histograms and all four lag gauges.
func TestObservabilityEndToEnd(t *testing.T) {
	pri := primary.NewCluster(1, 32)
	tbl, err := pri.Instance(0).CreateTable(&rowstore.TableSpec{
		Name: "OBS", Tenant: 1,
		Columns: []rowstore.Column{
			{Name: "id", Kind: rowstore.KindNumber},
			{Name: "n1", Kind: rowstore.KindNumber},
		},
		IdentityCol: 0, PartitionCol: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pri.Instance(0).AlterInMemory(1, "OBS", "", rowstore.InMemoryAttr{Enabled: true, Service: "standby"}); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(ln, pri.Instance(0).Stream())
	defer srv.Close()
	rcv, err := transport.Connect(srv.Addr(), []uint16{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()

	sby := standby.New(standby.Config{
		RowsPerBlock: 32,
		// A coarse checkpoint period keeps the watermark visibly behind the
		// dispatch frontier while the load runs, making apply lag observable.
		CheckpointInterval: 25 * time.Millisecond,
		PopulationInterval: time.Millisecond,
		BlocksPerIMCU:      8,
		MetricsAddr:        "127.0.0.1:0",
		LagSampleInterval:  time.Millisecond,
		// The per-record stages time sampled SCNs only: sample every one so
		// each stage sees this short load.
		FreshnessSampleEvery: 1,
	})
	sby.Attach(rcv)
	sby.Start()
	defer sby.Stop()

	// Poll the derived apply-lag gauge while the insert load dispatches: the
	// watermark only advances on coordinator ticks, so sustained dispatch must
	// expose a nonzero lag sample.
	var maxLag atomic.Int64
	pollStop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-pollStop:
				return
			default:
			}
			if v, ok := sby.Obs().GaugeValue(standby.GaugeApplyLag); ok && int64(v) > maxLag.Load() {
				maxLag.Store(int64(v))
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	s := tbl.Schema()
	for batch := 0; batch < 10; batch++ {
		tx := pri.Instance(0).Begin()
		for i := int64(0); i < 500; i++ {
			r := rowstore.NewRow(s)
			r.Nums[s.Col(0).Slot()] = int64(batch)*500 + i
			r.Nums[s.Col(1).Slot()] = i % 100
			if _, err := tx.Insert(tbl, r); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// A follow-up update forces mined invalidations against populated IMCUs.
	if !sby.WaitForSCN(pri.Snapshot(), 10*time.Second) {
		t.Fatalf("standby did not catch up: %+v", sby.Stats())
	}
	sby.Engine().WaitIdle(10 * time.Second)
	tx := pri.Instance(0).Begin()
	for i := int64(0); i < 100; i++ {
		_ = tx.UpdateByID(tbl, i, []uint16{1}, func(r *rowstore.Row) { r.Nums[s.Col(1).Slot()] = -1 })
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !sby.WaitForSCN(pri.Snapshot(), 10*time.Second) {
		t.Fatalf("standby did not catch up after update: %+v", sby.Stats())
	}
	close(pollStop)
	pollWG.Wait()

	// Every pipeline stage must have recorded events for the committed load
	// (transition only fires during broker role transitions, not steady state).
	tr := sby.Trace()
	for _, stage := range obs.Stages() {
		if stage == obs.StageTransition {
			continue
		}
		if tr.StageCount(stage) == 0 {
			t.Errorf("stage %q recorded no trace events", stage)
		}
	}
	if ev := tr.Events(0); len(ev) == 0 {
		t.Fatal("trace ring is empty")
	}

	if maxLag.Load() == 0 {
		t.Error("apply-lag gauge never observed nonzero during sustained load")
	}
	if pts := sby.LagSeries()[standby.GaugeApplyLag].Points(); len(pts) == 0 {
		t.Error("lag sampler recorded no apply-lag series points")
	}

	addr := sby.MetricsAddr()
	if addr == "" {
		t.Fatal("exporter not running")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		"# TYPE standby_cvs_applied_total counter",
		"# TYPE " + standby.GaugeApplyLag + " gauge",
		"# TYPE " + standby.GaugeQueryStaleness + " gauge",
		"# TYPE " + standby.GaugeJournalTxns + " gauge",
		"# TYPE " + standby.GaugeCommitPending + " gauge",
		"# TYPE pipeline_stage_apply_seconds histogram",
		`pipeline_stage_ship_seconds_bucket{le="+Inf"}`,
		"standby_mined_records_total",
		"standby_flushed_records_total",
		"imcs_rows_invalidated_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestStatsCoherence hammers Stats() while the pipeline runs and asserts the
// documented snapshot guarantee: QuerySCN <= AppliedWatermark <= DispatchedSCN
// in every single snapshot, so derived lags are never negative.
func TestStatsCoherence(t *testing.T) {
	p := newPair(t, 1, standby.Config{}, "standby")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := p.sby.Stats()
				if st.AppliedWatermark > st.DispatchedSCN {
					t.Errorf("incoherent snapshot: watermark %d > dispatched %d", st.AppliedWatermark, st.DispatchedSCN)
					return
				}
				if st.QuerySCN > st.AppliedWatermark {
					t.Errorf("incoherent snapshot: querySCN %d > watermark %d", st.QuerySCN, st.AppliedWatermark)
					return
				}
			}
		}()
	}
	for batch := 0; batch < 20; batch++ {
		p.insert(t, int64(batch)*100, int64(batch+1)*100)
	}
	p.catchUp(t)
	close(stop)
	wg.Wait()
}
