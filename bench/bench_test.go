package main

import (
	"math"
	"regexp"
	"testing"
)

// toy is every workload's smoke-test scale: a 2 000-row table and half a
// measured second, so that all nine runs fit in tier-1's budget. Its files
// go to a directory of the test's own.
func toy(t *testing.T, workload string, traced bool) runConfig {
	return runConfig{workload: workload, seed: 7, seconds: 0.5, traced: traced, rows: 2000, outDir: t.TempDir()}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkDeclared asserts that a run emitted exactly the declared metrics, with
// the declared units, and no NaN or infinity.
func checkDeclared(t *testing.T, res *result, decls []metricDecl) {
	t.Helper()
	declared := map[string]string{}
	for _, d := range decls {
		if !metricName.MatchString(d.Name) {
			t.Errorf("declared metric name %q is not a valid name", d.Name)
		}
		declared[d.Name] = d.Unit
	}
	for name, m := range res.Metrics {
		unit, ok := declared[name]
		if !ok {
			t.Errorf("emitted metric %s is not declared in BENCHMARK.json", name)
			continue
		}
		if unit != m.Unit {
			t.Errorf("metric %s: emitted unit %q, declared %q", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s is %v", name, m.Value)
		}
	}
	for name := range declared {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("declared metric %s was not emitted", name)
		}
	}
}

func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(sp.Workloads), len(workloadNames))
	}
	for _, w := range sp.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := plans[w.Name]; !ok {
				t.Fatalf("declared workload %s has no plan", w.Name)
			}
			res, err := runOne(toy(t, w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("untraced run: correct=%v failed=%d of %d: %s", res.Correct, res.Failed, res.Attempted, res.Error)
			}
			checkDeclared(t, res, sp.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; every workload does the work behind every one", name, m.Value)
				}
			}

			res, err = runOne(toy(t, w.Name, true))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("traced run incorrect: %s", res.Error)
			}
			checkDeclared(t, res, sp.PerLayer)
			for _, name := range append([]string{"transport.frames_read", "imcs.units", "txn.commit_p50_us", "scanengine.q2_p50_ms"}, exactRepeat...) {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("per-layer metric %s is %v after work was done", name, res.Metrics[name].Value)
				}
			}
			if w.Name != "redo_catchup" {
				return
			}
			// The redo_catchup self-check: counts that depend on the seed
			// alone are identical across two runs.
			again, err := runOne(toy(t, w.Name, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range exactRepeat {
				if x, y := res.Metrics[name].Value, again.Metrics[name].Value; x != y {
					t.Errorf("%s: %v then %v on the same seed", name, x, y)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c, c * 1.01, c * 0.99, c * 1.005, c * 0.995} }
	lower := metricDecl{Name: "x", Better: "lower", Bound: 0.1}
	higher := metricDecl{Name: "y", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		d    metricDecl
		a, b []float64
		want verdict
	}{
		{lower, steady(100), steady(105), verdictOK},
		{lower, steady(100), steady(115), verdictRegressed},
		{lower, steady(100), steady(80), verdictOK},
		{higher, steady(100), steady(85), verdictRegressed},
		{higher, steady(100), steady(120), verdictOK},
		{lower, steady(100), []float64{60, 100, 140, 100, 100}, verdictUnresolved},
		{metricDecl{Name: "setup_s", Better: "lower", Bound: 0.1}, steady(100), []float64{60, 100, 140, 100, 100}, verdictOK},
	} {
		if got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", tc.d.Better, tc.a[0], tc.b[0], got, tc.want)
		}
	}
}
