package dbimadg_test

import (
	"math/rand"
	"testing"
	"time"

	"dbimadg"
)

// The redo → QuerySCN path wakes on work, not on a clock. These tests pin that
// without measuring speed: they set the coordinator's heartbeat
// (CheckpointInterval) so long that anything still waiting for a tick misses
// its deadline by orders of magnitude, whatever the load on the box.

// openQuiet opens a deployment whose only timer on the commit → publish path,
// the heartbeat, is too slow to help, with table T created, loaded and
// populated on the standby.
func openQuiet(t *testing.T, cfg dbimadg.Config) (*dbimadg.Cluster, *dbimadg.Table) {
	t.Helper()
	cfg.RowsPerBlock, cfg.BlocksPerIMCU = 32, 8
	cfg.PopulationInterval = time.Millisecond
	c, err := dbimadg.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	tbl, err := c.CreateTable(simpleSpec("T", 1))
	if err != nil {
		t.Fatal(err)
	}
	attr := dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly}
	if err := c.AlterInMemory(1, "T", "", attr); err != nil {
		t.Fatal(err)
	}
	insertRows(t, c, tbl, 0, 200)
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitPopulated(10*time.Second) {
		t.Fatalf("set-up did not settle: %+v", c.Stats())
	}
	return c, tbl
}

func eachTransport(t *testing.T, f func(t *testing.T, useTCP bool)) {
	t.Run("inproc", func(t *testing.T) { f(t, false) })
	t.Run("tcp", func(t *testing.T) { f(t, true) })
}

// TestIdleCommitVisibleWithoutHeartbeat: one commit on an idle deployment is
// visible on the standby long before the one-second heartbeat could fire.
func TestIdleCommitVisibleWithoutHeartbeat(t *testing.T) {
	eachTransport(t, func(t *testing.T, useTCP bool) {
		c, tbl := openQuiet(t, dbimadg.Config{UseTCP: useTCP, CheckpointInterval: time.Second})
		for i := int64(0); i < 5; i++ {
			start := time.Now()
			insertRows(t, c, tbl, 1000+i, 1001+i)
			if !c.WaitStandbyCaughtUp(100 * time.Millisecond) {
				t.Fatalf("commit %d not visible 100ms after it returned: %+v", i, c.Stats())
			}
			t.Logf("commit %d visible after %v", i, time.Since(start))
			time.Sleep(2 * time.Millisecond) // every stage goes back to sleep
		}
	})
}

// TestNoLostWakeups: short bursts of commits separated by idle gaps of random
// length, so that appends keep landing while the server, the merger and the
// coordinator are on their way to sleep. With a one-minute heartbeat a single
// lost wake-up leaves the burst's last commit unpublished past the deadline.
func TestNoLostWakeups(t *testing.T) {
	eachTransport(t, func(t *testing.T, useTCP bool) {
		c, tbl := openQuiet(t, dbimadg.Config{UseTCP: useTCP, CheckpointInterval: time.Minute})
		rng := rand.New(rand.NewSource(1))
		id := int64(1000)
		for burst := 0; burst < 60; burst++ {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				insertRows(t, c, tbl, id, id+1)
				id++
			}
			if !c.WaitStandbyCaughtUp(2 * time.Second) {
				t.Fatalf("burst %d: a wake-up was lost: %+v", burst, c.Stats())
			}
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
		if q, last := c.StandbyMaster().QuerySCN(), c.Primary().Snapshot(); q != last {
			t.Fatalf("QuerySCN %d, last commit %d", q, last)
		}
	})
}

// TestDefaultFreshnessSamplesSingleRowCommits: a single-row transaction takes
// two SCNs, so its commit SCNs are all odd (or all even); the default sampling
// period must not share that factor, or Freshness().Summary() stays empty.
func TestDefaultFreshnessSamplesSingleRowCommits(t *testing.T) {
	c, err := dbimadg.Open(dbimadg.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, err := c.CreateTable(simpleSpec("T", 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		insertRows(t, c, tbl, i, i+1)
	}
	if !c.WaitStandbyCaughtUp(10 * time.Second) {
		t.Fatalf("standby lagging: %+v", c.Stats())
	}
	if sum := c.Freshness().Summary(); sum.Stats.Completed == 0 || sum.CommitToVisible.Count == 0 {
		t.Fatalf("default config closed no commit span over 100 single-row transactions: %+v", sum.Stats)
	}
}

// TestFreshnessWaterfallCoversCommitToVisible: the segments that tile a traced
// commit's journey (the two waits and the stages between them; ship, mine and
// journal lie inside others) account for most of its commit-to-visible time.
func TestFreshnessWaterfallCoversCommitToVisible(t *testing.T) {
	c, tbl := openQuiet(t, dbimadg.Config{UseTCP: true, FreshnessSampleEvery: 1, CheckpointInterval: time.Second})
	insertRows(t, c, tbl, 1000, 1001)
	if !c.WaitStandbyCaughtUp(10 * time.Second) {
		t.Fatalf("standby lagging: %+v", c.Stats())
	}
	spans := c.Freshness().Waterfalls(1)
	if len(spans) != 1 || !spans[0].Commit || spans[0].CommitToVisible <= 0 {
		t.Fatalf("no closed commit span: %+v", spans)
	}
	sp := spans[0]
	tiles := map[string]bool{"shipwait": true, "merge": true, "dispatch": true, "apply": true,
		"publishwait": true, "flush": true, "publish": true}
	seen := map[string]bool{}
	var sum time.Duration
	for _, seg := range sp.Segments {
		seen[seg.Stage] = true
		if tiles[seg.Stage] {
			sum += seg.Dur
		}
	}
	if !seen["shipwait"] || !seen["publishwait"] {
		t.Fatalf("wait segments missing from the waterfall: %+v", sp.Segments)
	}
	if sum*4 < sp.CommitToVisible*3 {
		t.Fatalf("segments cover %v of %v commit-to-visible: %+v", sum, sp.CommitToVisible, sp.Segments)
	}
}
