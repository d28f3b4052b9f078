package chaos

import (
	"encoding/json"
	"net"
	"os"
	"testing"
	"time"

	"dbimadg/internal/obs"
	"dbimadg/internal/primary"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
)

// stallRig is a minimal primary → TCP (scripted injector) → standby pipeline
// for targeted liveness tests, outside the randomized Runner.
type stallRig struct {
	pri      *primary.Cluster
	sby      *standby.Instance
	srv      *transport.Server
	injector *transport.FaultInjector
	rcv      *transport.Receiver
	tbl      *rowstore.Table
	stallCh  chan *obs.Bundle
}

func newStallRig(t *testing.T, deadline time.Duration) *stallRig {
	t.Helper()
	rig := &stallRig{pri: primary.NewCluster(1, rowsPerBlock)}
	cfg := standby.Config{
		RowsPerBlock:          rowsPerBlock,
		CheckpointInterval:    time.Millisecond,
		PopulationInterval:    time.Millisecond,
		BlocksPerIMCU:         blocksPerIMCU,
		WatchdogInterval:      10 * time.Millisecond,
		WatchdogStallDeadline: deadline,
	}
	rig.sby = standby.New(cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	stream := rig.pri.Instance(0).Stream()
	rig.srv = transport.NewServer(ln, stream)
	rig.injector = transport.NewScriptedInjector() // all clean until a tail is set
	rig.srv.SetFaultInjector(rig.injector)
	rcv, err := transport.Connect(rig.srv.Addr(), []uint16{rig.pri.Instance(0).Thread()}, 0)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	rig.rcv = rcv
	rig.sby.Attach(rcv)
	rig.sby.SetShipFrontier(func() scn.SCN { return stream.LastSCN() })
	rig.stallCh = make(chan *obs.Bundle, 1)
	rig.sby.Watchdog().OnStall(func(b *obs.Bundle) {
		select {
		case rig.stallCh <- b:
		default:
		}
	})
	rig.sby.Start()
	t.Cleanup(func() {
		rig.sby.Stop()
		_ = rig.rcv.Close()
		_ = rig.srv.Close()
		rig.pri.Close()
	})

	tbl, err := rig.pri.Instance(0).CreateTable(&rowstore.TableSpec{
		Name:   "S1",
		Tenant: 1,
		Columns: []rowstore.Column{
			{Name: "id", Kind: rowstore.KindNumber},
			{Name: "n1", Kind: rowstore.KindNumber},
		},
		IdentityCol:  0,
		PartitionCol: -1,
	})
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	rig.tbl = tbl
	return rig
}

func (rig *stallRig) insert(t *testing.T, from, to int64) {
	t.Helper()
	s := rig.tbl.Schema()
	tx := rig.pri.Instance(0).Begin()
	for i := from; i < to; i++ {
		row := rowstore.NewRow(s)
		row.Nums[s.Col(0).Slot()] = i
		row.Nums[s.Col(1).Slot()] = i % 10
		if _, err := tx.Insert(rig.tbl, row); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// TestWatchdogStallDetection wedges the transport with a scripted permanent
// outage (every frame past the script severs the connection) and requires the
// watchdog to declare a stall within the deadline — with a non-empty
// diagnostic bundle — instead of the pipeline hanging silently.
func TestWatchdogStallDetection(t *testing.T) {
	const deadline = 400 * time.Millisecond
	rig := newStallRig(t, deadline)

	// Healthy phase: rows ship and apply normally.
	rig.insert(t, 0, 64)
	if !rig.sby.WaitForSCN(rig.pri.Snapshot(), 10*time.Second) {
		t.Fatalf("standby never caught up during the healthy phase")
	}
	if n := rig.sby.Watchdog().Stalls(); n != 0 {
		t.Fatalf("healthy phase produced %d stall(s)", n)
	}

	// Permanent outage: every subsequent frame severs the connection, so the
	// committed rows below are never delivered no matter how often the
	// receiver redials.
	rig.injector.SetScriptTail(transport.FaultDrop)
	rig.insert(t, 64, 128)

	var bundle *obs.Bundle
	select {
	case bundle = <-rig.stallCh:
	case <-time.After(deadline + 5*time.Second):
		t.Fatalf("watchdog never fired: health=%+v", rig.sby.Watchdog().Health())
	}
	if bundle == nil {
		t.Fatalf("stall callback delivered a nil bundle")
	}
	if bundle.Reason == "" || len(bundle.Stages) == 0 {
		t.Fatalf("bundle missing verdict context: %+v", bundle)
	}
	stalled := ""
	for _, s := range bundle.Stages {
		if s.State == "stalled" {
			stalled = s.Stage
		}
	}
	if stalled != "ship" {
		t.Fatalf("expected the ship stage to stall, got %q (stages %+v)", stalled, bundle.Stages)
	}
	if bundle.Goroutines == "" {
		t.Fatalf("bundle has no goroutine profile")
	}
	if _, ok := bundle.State["transport"]; !ok {
		t.Fatalf("bundle has no transport state: %v", bundle.State)
	}
	if rig.sby.FlightRecorder().Len() == 0 {
		t.Fatalf("flight recorder retained no bundle")
	}
	if rep := rig.sby.Watchdog().Health(); rep.Verdict != "stalled" {
		t.Fatalf("health verdict = %q after a permanent outage", rep.Verdict)
	}
}

// TestDumpBundleWritesArtifact checks the CI artifact path: with
// CHAOS_ARTIFACT_DIR set, a failing run's bundle lands on disk as JSON
// carrying the replay seed; with it unset, nothing is written.
func TestDumpBundleWritesArtifact(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CHAOS_ARTIFACT_DIR", dir)
	r := &Runner{opts: Options{Seed: 42}}
	b := obs.NewFlightRecorder(nil, nil, 1).Capture("test stall", nil)

	path := r.dumpBundle(b)
	if path == "" {
		t.Fatal("dumpBundle wrote nothing with CHAOS_ARTIFACT_DIR set")
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("artifact unreadable: %v", err)
	}
	var doc struct {
		ReplaySeed int64       `json:"replay_seed"`
		Bundle     *obs.Bundle `json:"bundle"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if doc.ReplaySeed != 42 || doc.Bundle == nil || doc.Bundle.Reason != "test stall" {
		t.Fatalf("artifact payload: seed=%d bundle=%+v", doc.ReplaySeed, doc.Bundle)
	}

	t.Setenv("CHAOS_ARTIFACT_DIR", "")
	if p := r.dumpBundle(b); p != "" {
		t.Fatalf("dumpBundle wrote %s with CHAOS_ARTIFACT_DIR unset", p)
	}
}

// TestWatchdogIdleNoFalsePositive holds a healthy but completely idle
// pipeline well past the stall deadline: every stage must report idle/ok,
// never stalled — an idle primary is not a wedge.
func TestWatchdogIdleNoFalsePositive(t *testing.T) {
	const deadline = 200 * time.Millisecond
	rig := newStallRig(t, deadline)
	rig.insert(t, 0, 32)
	if !rig.sby.WaitForSCN(rig.pri.Snapshot(), 10*time.Second) {
		t.Fatalf("standby never caught up")
	}
	time.Sleep(5 * deadline) // idle: no redo at all
	if n := rig.sby.Watchdog().Stalls(); n != 0 {
		t.Fatalf("idle pipeline produced %d stall(s): %+v", n, rig.sby.Watchdog().Health())
	}
	rep := rig.sby.Watchdog().Health()
	if rep.Verdict != "ok" {
		t.Fatalf("idle verdict = %q: %+v", rep.Verdict, rep)
	}
}
