package standby_test

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"dbimadg/internal/obs"
	"dbimadg/internal/redo"
	"dbimadg/internal/scn"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
)

// stageCounts are the per-record stages' event counts of one replay.
type stageCounts struct {
	merge, dispatch, apply, mine, journal, flush uint64
}

// replayInProc catches a fresh standby up on w's log through last over the
// in-process transport, with population off, and stops it. It returns the
// stopped standby and the time the catch-up took.
func replayInProc(tb testing.TB, w *wideLog, last scn.SCN, every int) (*standby.Instance, time.Duration) {
	tb.Helper()
	sby := standby.New(standby.Config{
		RowsPerBlock: 32, FreshnessSampleEvery: every, WatchdogInterval: -1,
		PopulationInterval: time.Hour,
	})
	sby.Attach(transport.NewInProc(w.src))
	start := time.Now()
	sby.Start()
	if !sby.WaitForSCN(last, 60*time.Second) {
		sby.Stop()
		tb.Fatalf("replay did not reach SCN %d: %+v", last, sby.Stats())
	}
	took := time.Since(start)
	sby.Stop()
	return sby, took
}

// wantCounts derives from the log what the per-record stages count when only
// the SCNs sampled admits are timed: merge and dispatch time a record; apply
// a CV of a recovery worker (markers are applied inline, outside the
// workers); mine every CV; journal a data CV once INMEMORY is enabled; flush a
// commit.
func wantCounts(src *redo.Stream, sampled func(scn.SCN) bool) stageCounts {
	var c stageCounts
	enabled := false
	for i := 0; i < src.Len(); i++ {
		rec, _ := src.At(i)
		for k := range rec.CVs {
			cv := &rec.CVs[k]
			if cv.Kind == redo.CVMarker && cv.Marker.Kind == redo.MarkerAlterInMemory {
				enabled = true
			}
			if !sampled(rec.SCN) {
				continue
			}
			c.mine++
			if cv.Kind != redo.CVMarker {
				c.apply++
			}
			switch cv.Kind {
			case redo.CVInsert, redo.CVUpdate, redo.CVDelete:
				if enabled {
					c.journal++
				}
			case redo.CVCommit:
				c.flush++
			}
		}
		if sampled(rec.SCN) {
			c.merge++
			c.dispatch++
		}
	}
	return c
}

// TestStageTimingFollowsSampler: a record or change vector is timed in the
// per-record stages only when its SCN is one the freshness tracer samples —
// every SCN at 1, every fifth at 5, none when sampling is off — while every
// QuerySCN advancement is timed in publish.
func TestStageTimingFollowsSampler(t *testing.T) {
	w := newWideLog(t, 400)
	last := w.updates(600, 3)
	for _, every := range []int{5, 1, -1} {
		t.Run(fmt.Sprint(every), func(t *testing.T) {
			sby, _ := replayInProc(t, w, last, every)
			want := wantCounts(w.src, func(s scn.SCN) bool { return every > 0 && s%scn.SCN(every) == 0 })
			tr := sby.Trace()
			got := stageCounts{
				merge: tr.StageCount(obs.StageMerge), dispatch: tr.StageCount(obs.StageDispatch),
				apply: tr.StageCount(obs.StageApply), mine: tr.StageCount(obs.StageMine),
				journal: tr.StageCount(obs.StageJournal), flush: tr.StageCount(obs.StageFlush),
			}
			t.Logf("timed %+v", got)
			if got != want {
				t.Errorf("stage counts %+v, want %+v", got, want)
			}
			if every == 1 && (uint64(sby.Stats().RecordsApplied) != got.dispatch || want.journal == 0) {
				t.Errorf("sampling every SCN: %d records dispatched, %d timed, %d journaled",
					sby.Stats().RecordsApplied, got.dispatch, want.journal)
			}
			if pub, adv := tr.StageCount(obs.StagePublish), sby.Stats().QuerySCNAdvances; pub != uint64(adv) || adv == 0 {
				t.Errorf("publish timed %d times for %d QuerySCN advances", pub, adv)
			}
		})
	}
}

// BenchmarkReplayInProc times in-process catch-ups of one fixed log (a load of
// 2 000 rows of the bench table, then 30 000 updates, two to a transaction)
// with the per-record stages timing every 17th SCN (the default), every SCN
// (a traced bench run) and none. It reports the median catch-up's ns per
// applied change vector: a catch-up that the scheduler slows moves a mean.
func BenchmarkReplayInProc(b *testing.B) {
	w := newWideLog(b, 2000)
	last := w.updates(30000, 2)
	for _, every := range []int{17, 1, -1} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			perCV := make([]float64, b.N)
			for i := range perCV {
				runtime.GC()
				sby, took := replayInProc(b, w, last, every)
				perCV[i] = float64(took.Nanoseconds()) / float64(sby.Stats().CVsApplied)
			}
			sort.Float64s(perCV)
			b.ReportMetric(0, "ns/op")
			b.ReportMetric(perCV[len(perCV)/2], "ns/cv")
		})
	}
}
