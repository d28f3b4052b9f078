package dbimadg_test

import (
	"testing"
	"time"

	"dbimadg"
	"dbimadg/internal/testutil"
)

// TestCloseLeavesNoPipelineGoroutines deploys the full stack — TCP transport,
// multi-instance primary, a home-share and a full-copy standby reader,
// watchdog, metrics endpoint — runs traffic, then closes the cluster and
// requires every pipeline goroutine (receivers, apply workers, flusher, reader
// coordinators, population engines, watchdog, HTTP server) to exit. A
// worker that survives Close is a leak that compounds across restarts, and
// the watchdog itself must not become the goroutine it was built to catch.
func TestCloseLeavesNoPipelineGoroutines(t *testing.T) {
	cfg := quickCfg()
	cfg.UseTCP = true
	cfg.PrimaryInstances = 2
	cfg.StandbyReaders = 1
	cfg.FleetReaders = 1
	cfg.MetricsAddr = "127.0.0.1:0"
	c, err := dbimadg.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := c.CreateTable(simpleSpec("T", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly}); err != nil {
		t.Fatal(err)
	}
	insertRows(t, c, tbl, 0, 300)
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitPopulated(10*time.Second) {
		t.Fatalf("sync failed: %+v", c.Stats())
	}
	if n := c.StandbyWatchdog().Stalls(); n != 0 {
		t.Fatalf("healthy run reported %d stall(s)", n)
	}
	c.Close()
	testutil.NoGoroutineLeak(t, "dbimadg/")
}
