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

func isAncestor(a, b string) bool {
	at := func(sha string) int { return strings.Index(strings.Join(history, " "), sha[:7]) }
	return at(a) >= 0 && at(a) < at(b)
}

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
	tr, err := load(dir, history, isAncestor)
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
	// Compared with each other across sessions, bench --compare's verdicts.
	verdicts := map[string]int{}
	for _, w := range tr.spec.Workloads {
		for _, d := range tr.spec.EndToEnd {
			verdicts[judge(d, reclaim.B[w.Name+" "+d.Name], dicts.B[w.Name+" "+d.Name])]++
		}
	}
	if verdicts["regressed"] != 6 || verdicts["unresolved"] != 4 {
		t.Errorf("013c55b against 542be98: %v, want 6 regressed, 4 unresolved", verdicts)
	}
	// The drift from one link's change side to the next link's parent side.
	for k, want := range map[string]string{
		"redo_catchup setup_s":         "×1.32: 0.2255 → 0.2986",
		"redo_catchup apply_cvs_per_s": "×0.76: 333000 → 251800",
		"scan_static c2v_p50_ms":       "×1.44: 0.09881 → 0.1424",
	} {
		if got := fmt.Sprintf("×%.2f: %s → %s", tr.drift(10, k), num(median(reclaim.B[k])), num(median(dicts.A[k]))); got != want {
			t.Errorf("drift of %v = %s, want %s", k, got, want)
		}
	}
	if got := strings.Join(tr.uncovered, " "); got != "1a93a73 da539c3 1664a6d a5097e6 e0df4cd 0b8f59d 8e8e6fe 13d0bad fe14ac7 18fed83 e96e50a 0df0fbf 417c973" {
		t.Errorf("uncovered: %s", got)
	}
}

// Two committed sets on the same seeds are one link, the ancestor its parent.
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
