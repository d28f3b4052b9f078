package router_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dbimadg/internal/fleet"
	"dbimadg/internal/primary"
	"dbimadg/internal/redo"
	"dbimadg/internal/router"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/service"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
)

type rig struct {
	pri *primary.Cluster
	sby *standby.Instance
	tbl *rowstore.Table
	flt *fleet.Manager
	rtr *router.Router
}

func newRig(t *testing.T, spec fleet.Spec) *rig {
	t.Helper()
	pri := primary.NewCluster(1, 32)
	sby := standby.New(standby.Config{
		RowsPerBlock:       32,
		CheckpointInterval: time.Millisecond,
		PopulationInterval: time.Millisecond,
		BlocksPerIMCU:      4,
	})
	var streams []*redo.Stream
	for _, inst := range pri.Instances() {
		streams = append(streams, inst.Stream())
	}
	sby.Attach(transport.NewInProc(streams...))
	sby.Start()
	t.Cleanup(func() { sby.Stop() })

	tbl, err := pri.Instance(0).CreateTable(&rowstore.TableSpec{
		Name: "T", Tenant: 1,
		Columns: []rowstore.Column{
			{Name: "id", Kind: rowstore.KindNumber},
			{Name: "n1", Kind: rowstore.KindNumber},
		},
		IdentityCol: 0, PartitionCol: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pri.Instance(0).AlterInMemory(1, "T", "", rowstore.InMemoryAttr{Enabled: true, Service: "standby"}); err != nil {
		t.Fatal(err)
	}

	g := &rig{pri: pri, sby: sby, tbl: tbl}
	g.insert(t, 0, 300)
	if !sby.WaitForSCN(pri.Snapshot(), 10*time.Second) {
		t.Fatal("master lagging")
	}
	g.flt = fleet.NewManager(sby, spec)
	t.Cleanup(g.flt.Shutdown)
	if spec.Readers > 0 && !g.flt.WaitReady(10*time.Second) {
		t.Fatalf("fleet never Ready: %+v", g.flt.Stats())
	}
	g.rtr = router.New(g.flt, sby.Services(), sby.Obs())
	return g
}

func (g *rig) insert(t *testing.T, from, to int64) {
	t.Helper()
	s := g.tbl.Schema()
	tx := g.pri.Instance(0).Begin()
	for i := from; i < to; i++ {
		r := rowstore.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		r.Nums[s.Col(1).Slot()] = i % 10
		if _, err := tx.Insert(g.tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceAndRelease routes one scan onto a Ready reader, holding and then
// returning its admission slot.
func TestPlaceAndRelease(t *testing.T) {
	g := newRig(t, fleet.Spec{Readers: 1})
	p, err := g.rtr.Place(router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Reader == nil || p.Reader.State() != fleet.StateReady {
		t.Fatalf("placed on non-Ready reader: %+v", p.Reader)
	}
	if p.Reader.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1", p.Reader.InFlight())
	}
	p.Release()
	p.Release() // idempotent
	if p.Reader.InFlight() != 0 {
		t.Fatalf("in-flight after release = %d, want 0", p.Reader.InFlight())
	}
	tot := g.rtr.Totals()
	if tot.Placed != 1 || tot.Shed != 0 || tot.NoReader != 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

// TestLeastLoadedSpread checks placements prefer the idle reader when one is
// busy.
func TestLeastLoadedSpread(t *testing.T) {
	g := newRig(t, fleet.Spec{Readers: 2})
	a, err := g.rtr.Place(router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	b, err := g.rtr.Place(router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if a.Reader.ID() == b.Reader.ID() {
		t.Fatalf("both placements landed on reader %d with an idle peer", a.Reader.ID())
	}
}

// TestEmptyFleetErrNoReader: routing over an empty fleet fails typed after
// the bounded wait (and immediately with Wait < 0).
func TestEmptyFleetErrNoReader(t *testing.T) {
	g := newRig(t, fleet.Spec{Readers: 0})
	start := time.Now()
	_, err := g.rtr.Place(router.Options{Wait: 20 * time.Millisecond})
	if !errors.Is(err, router.ErrNoReader) {
		t.Fatalf("err = %v, want ErrNoReader", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("Place returned before the bounded wait expired")
	}
	start = time.Now()
	if _, err := g.rtr.Place(router.Options{Wait: -1}); !errors.Is(err, router.ErrNoReader) {
		t.Fatalf("no-wait err = %v, want ErrNoReader", err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("Wait<0 placement did not return promptly")
	}
	if tot := g.rtr.Totals(); tot.NoReader != 2 {
		t.Fatalf("no_reader total = %d, want 2", tot.NoReader)
	}
}

// TestTokenGatesPlacement: a read-your-writes token past every reader's
// QuerySCN blocks placement; once redo advances the readers to it, the same
// placement succeeds within its wait.
func TestTokenGatesPlacement(t *testing.T) {
	g := newRig(t, fleet.Spec{Readers: 1})
	future := g.flt.Watermark() + 1_000_000
	if _, err := g.rtr.Place(router.Options{Token: future, Wait: -1}); !errors.Is(err, router.ErrNoReader) {
		t.Fatalf("future-token err = %v, want ErrNoReader", err)
	}

	// Commit more rows; the commit's SCN is the token a session would carry.
	g.insert(t, 300, 400)
	token := g.pri.Snapshot()
	p, err := g.rtr.Place(router.Options{Token: token, Wait: 5 * time.Second})
	if err != nil {
		t.Fatalf("post-commit token placement: %v", err)
	}
	defer p.Release()
	if q := p.Reader.QuerySCN(); q < token {
		t.Fatalf("placed reader QuerySCN %d below token %d", q, token)
	}
}

// TestMaxLagBound: a caught-up reader passes a tight freshness bound; the
// bound's arithmetic is exercised against the live watermark.
func TestMaxLagBound(t *testing.T) {
	g := newRig(t, fleet.Spec{Readers: 1})
	r := g.flt.Readers()[0]
	// Let the reader reach the watermark so lag is zero.
	if !g.sby.WaitForSCN(g.pri.Snapshot(), 10*time.Second) {
		t.Fatal("master lagging")
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.QuerySCN() < g.flt.Watermark() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p, err := g.rtr.Place(router.Options{MaxLag: 1})
	if err != nil {
		t.Fatalf("caught-up reader failed MaxLag=1: %v (lag=%d)", err, g.flt.Watermark()-r.QuerySCN())
	}
	p.Release()
}

// TestOverloadSheds: with one slot and no queue headroom, concurrent
// placements shed typed, and the router does not double-wait on top of the
// admission deadline.
func TestOverloadSheds(t *testing.T) {
	g := newRig(t, fleet.Spec{
		Readers:            1,
		MaxConcurrentScans: 1,
		QueueDepth:         1,
		QueueTimeout:       5 * time.Millisecond,
	})
	p, err := g.rtr.Place(router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	// Fill the single queue slot with a parked waiter.
	parked := make(chan error, 1)
	go func() {
		q, err := g.rtr.Place(router.Options{})
		if err == nil {
			q.Release()
		}
		parked <- err
	}()
	// The next arrival finds slot and queue taken: ErrOverloaded, promptly.
	deadline := time.Now().Add(2 * time.Second)
	var shedErr error
	for time.Now().Before(deadline) {
		_, shedErr = g.rtr.Place(router.Options{})
		if errors.Is(shedErr, router.ErrOverloaded) {
			break
		}
	}
	if !errors.Is(shedErr, router.ErrOverloaded) {
		t.Fatalf("saturated placement err = %v, want ErrOverloaded", shedErr)
	}
	if err := <-parked; err != nil && !errors.Is(err, router.ErrOverloaded) {
		t.Fatalf("parked waiter err = %v", err)
	}
	if tot := g.rtr.Totals(); tot.Shed == 0 {
		t.Fatalf("shed total = 0 after overload: %+v", tot)
	}
}

// TestServiceEligibility: placements resolve the service against the live
// registry — a service that does not run on the standby role never places,
// and an Unregister mid-flight stops new placements immediately.
func TestServiceEligibility(t *testing.T) {
	g := newRig(t, fleet.Spec{Readers: 1})
	reg := g.sby.Services()

	if _, err := g.rtr.Place(router.Options{Service: service.PrimaryOnly, Wait: -1}); !errors.Is(err, router.ErrNoReader) {
		t.Fatalf("primary-only service err = %v, want ErrNoReader", err)
	}
	if _, err := g.rtr.Place(router.Options{Service: "reporting", Wait: -1}); !errors.Is(err, router.ErrNoReader) {
		t.Fatalf("unknown service err = %v, want ErrNoReader", err)
	}
	if err := reg.Register("reporting", service.RoleStandby); err != nil {
		t.Fatal(err)
	}
	p, err := g.rtr.Place(router.Options{Service: "reporting"})
	if err != nil {
		t.Fatalf("registered service placement: %v", err)
	}
	p.Release()
	reg.Unregister("reporting")
	if _, err := g.rtr.Place(router.Options{Service: "reporting", Wait: -1}); !errors.Is(err, router.ErrNoReader) {
		t.Fatalf("unregistered service err = %v, want ErrNoReader", err)
	}
}

// TestConcurrentRoutingUnderRegistryChurn flips a service's registration
// while sessions place through it — the live ALTER SERVICE pattern. Every
// outcome must be a placement or a typed error; runs under -race.
func TestConcurrentRoutingUnderRegistryChurn(t *testing.T) {
	g := newRig(t, fleet.Spec{Readers: 2})
	reg := g.sby.Services()
	if err := reg.Register("reporting", service.RoleStandby); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				reg.Unregister("reporting")
			} else if err := reg.Register("reporting", service.RoleStandby); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p, err := g.rtr.Place(router.Options{Service: "reporting", Wait: -1})
				switch {
				case err == nil:
					p.Release()
				case errors.Is(err, router.ErrNoReader), errors.Is(err, router.ErrOverloaded):
				default:
					t.Errorf("unexpected placement error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if err := reg.Register("reporting", service.RoleStandby); err != nil {
		t.Fatal(err)
	}
	if p, err := g.rtr.Place(router.Options{Service: "reporting"}); err != nil {
		t.Fatalf("routing broken after churn: %v", err)
	} else {
		p.Release()
	}
}

// TestFleetChurnDuringRouting adds and removes readers while sessions route:
// placements must only land on Ready readers and never error untyped.
func TestFleetChurnDuringRouting(t *testing.T) {
	g := newRig(t, fleet.Spec{Readers: 1, DrainTimeout: time.Second})
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for n := 2; ; n = 3 - n { // alternate 2, 1, 2, 1...
			select {
			case <-stop:
				return
			default:
			}
			g.flt.SetReaders(n)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for i := 0; i < 300; i++ {
		p, err := g.rtr.Place(router.Options{Wait: 50 * time.Millisecond})
		switch {
		case err == nil:
			if st := p.Reader.State(); st != fleet.StateReady && st != fleet.StateDraining {
				t.Errorf("placement on reader in state %v", st)
			}
			p.Release()
		case errors.Is(err, router.ErrNoReader), errors.Is(err, router.ErrOverloaded):
		default:
			t.Fatalf("unexpected routing error: %v", err)
		}
	}
	close(stop)
	churn.Wait()
}
