package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// history is the first-parent history from the seed to the commit that added
// this test, written out because the test runs without git history.
var history = strings.Fields(`946414c 1a93a73 872efb4 da539c3 1664a6d 9626ece eb9b52c a5097e6 489f4b1
	1b679b5 e0df4cd 0b8f59d 99d27fe af0cbd0 fcdff42 8e8e6fe 013c55b 13d0bad fe14ac7 18fed83 b8807e0
	542be98 e96e50a 0df0fbf 417c973`)

// loadRecord loads the record as committed with this test, plus extra files.
func loadRecord(t *testing.T, extra map[string]string) *trajectory {
	dir := t.TempDir()
	for _, f := range []string{"BENCHMARK.json", "bench/baseline.json", "trajectory_links.json", "BENCH_20261015_013c55b.json", "BENCH_20261016_542be98.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", f))
		if err == nil {
			extra[f] = string(data)
		}
	}
	os.Mkdir(filepath.Join(dir, "bench"), 0o755)
	for f, data := range extra {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := load(dir, history)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTrajectory(t *testing.T) {
	tr := loadRecord(t, map[string]string{})
	// The last two links, whose change sides are committed.
	reclaim, dicts := tr.Links[9], tr.Links[10]
	scan := "scan_static scan_mix_p50_ms"
	// The committed change sides read as bench --compare prints them.
	if got := show(reclaim.B[scan]) + "; " + show(dicts.B[scan]); got != "1.14 [1.072, 1.346] n=10; 1.71 [1.607, 1.785] n=10" {
		t.Errorf("committed change sides: %s", got)
	}
	// Read against each other as if one session's pairs, seed by seed.
	verdicts := map[string]int{}
	for _, w := range tr.spec.Workloads {
		for _, d := range tr.spec.EndToEnd {
			_, v := (&link{A: reclaim.B, B: dicts.B}).read(d, w.Name+" "+d.Name)
			verdicts[v]++
		}
	}
	if fmt.Sprint(verdicts) != "map[no change:4 ok:7 regressed:5 unresolved:8]" {
		t.Errorf("013c55b against 542be98: %v", verdicts)
	}
	if got := strings.Join(tr.uncovered, " "); got != "1a93a73 da539c3 1664a6d a5097e6 e0df4cd 0b8f59d 8e8e6fe 13d0bad fe14ac7 18fed83 e96e50a 0df0fbf 417c973" {
		t.Errorf("uncovered: %s", got)
	}
}

// A session that drifts by 20 % over its ten alternating pairs, the machine
// slow for the first half: the per-pair ratios read no change, 1.00 ± 0.02,
// where the ratio of the two sides' medians reads a 9 % gain that is not
// there.
func TestLinkReadsPerPairRatios(t *testing.T) {
	var a, b []float64
	for pair := 0; pair < 10; pair++ {
		level := func(run int) float64 { // runs 0…19; the drift lands after run 8
			if run <= 8 {
				return 1.2
			}
			return 1.0
		}
		first, second := 2*pair, 2*pair+1
		if pair%2 == 1 { // the change runs first in odd pairs
			first, second = second, first
		}
		a = append(a, level(first)*(1+0.005*float64(pair%3)))
		b = append(b, level(second)*(1+0.005*float64((pair+1)%3)))
	}
	d := decl{Name: "scan_mix_p50_ms", Better: "lower", Bound: 0.05}
	r, verdict := (&link{A: side{"k": a}, B: side{"k": b}}).read(d, "k")
	if r[1] < 0.98 || r[1] > 1.02 || r[0] < 0.98 || r[2] > 1.02 || verdict != "no change" {
		t.Errorf("per-pair reading ×%.3f [%.3f, %.3f] %s, want 1.00 ± 0.02, no change", r[1], r[0], r[2], verdict)
	}
	if old := median(b) / median(a); old > 0.95 {
		t.Errorf("the ratio of medians reads ×%.3f: the fixture does not drift", old)
	}
	// Pairs spread from ×0.8 to ×1.4 straddle 1 but are wider than the bound:
	// a regression could hide in them.
	wide, ones := []float64{0.8, 0.8, 0.8, 1.0, 1.1, 1.1, 1.4, 1.4, 1.4, 1.4}, make([]float64, 10)
	for i := range ones {
		ones[i] = 1
	}
	if _, verdict := (&link{A: side{"k": ones}, B: side{"k": wide}}).read(d, "k"); verdict != "unresolved" {
		t.Errorf("pairs ×0.8 … ×1.4 read %s, want unresolved", verdict)
	}
}

// Two committed sets on the same seeds are one link, the earlier its parent.
func TestPairsCommittedSets(t *testing.T) {
	set := `{"commit": "%s", "runs": [{"workload": "redo_catchup", "seed": 1, "metrics": {"setup_s": {"value": %g}}}]}`
	tr := loadRecord(t, map[string]string{
		"BENCH_a.json": fmt.Sprintf(set, "0df0fbf", 0.3),
		"BENCH_b.json": fmt.Sprintf(set, "e96e50a", 0.2),
	})
	l := tr.Links[11]
	if l.Parent != "e96e50a" || l.Change != "0df0fbf" || l.Transcribed || show(l.B["redo_catchup setup_s"]) != "0.3" {
		t.Errorf("link %+v", l)
	}
	if got := strings.Join(tr.uncovered, " "); !strings.HasPrefix(got, "1a93a73") || !strings.HasSuffix(got, "18fed83 e96e50a 417c973") {
		t.Errorf("uncovered: %s", got)
	}
}
