package standby_test

import (
	"testing"
	"time"

	"dbimadg/internal/obs"
	"dbimadg/internal/primary"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
)

// TestSaturatedReplayStaysUnderDutyCycle replays a log written ahead of time,
// so apply is saturated from the first record to the last and a commit is
// applied every few microseconds: one advancement per commit would keep the
// coordinator (and the quiesce lock) busy all the time. The pacing must
// coalesce them so that advancements × their mean cost — QuerySCNAdvances per
// applied change vector, times what one costs, times the apply rate — stays
// under 1/AdvanceGapFactor of the replay. The heartbeat is too slow to take
// part, so the schedule alone does the spacing.
func TestSaturatedReplayStaysUnderDutyCycle(t *testing.T) {
	const txns = 20000
	pri := primary.NewCluster(1, 32)
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
	s := tbl.Schema()
	for i := int64(0); i < txns; i++ {
		tx := pri.Instance(0).Begin()
		r := rowstore.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		if _, err := tx.Insert(tbl, r); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	sby := standby.New(standby.Config{RowsPerBlock: 32, CheckpointInterval: time.Minute})
	sby.Attach(transport.NewInProc(pri.Instance(0).Stream()))
	start := time.Now()
	sby.Start()
	defer sby.Stop()
	if !sby.WaitForSCN(pri.Snapshot(), 60*time.Second) {
		t.Fatalf("replay did not finish: %+v", sby.Stats())
	}
	elapsed := time.Since(start)

	st := sby.Stats()
	pub := sby.Trace().StageHistogram(obs.StagePublish).Snapshot()
	advancing := time.Duration(pub.Sum * float64(time.Second))
	t.Logf("%d advancements for %d commits (%d CVs) in %v; advancing took %v, the longest %v",
		st.QuerySCNAdvances, txns, st.CVsApplied, elapsed, advancing, time.Duration(pub.Max*float64(time.Second)))
	if st.QuerySCNAdvances >= txns {
		t.Fatalf("%d advancements for %d commits: nothing was coalesced", st.QuerySCNAdvances, txns)
	}
	// The running mean trails the costs it averages by eight samples and the
	// schedule lets a burst run ahead, so allow a handful of the longest.
	allowed := elapsed/standby.AdvanceGapFactor + 16*time.Duration(pub.Max*float64(time.Second))
	if advancing > allowed {
		t.Fatalf("advancing took %v of a %v replay, over the 1/%d cap (%v)",
			advancing, elapsed, standby.AdvanceGapFactor, allowed)
	}
}
