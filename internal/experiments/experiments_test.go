package experiments

import (
	"strings"
	"testing"
	"time"
)

// tinyParams keeps the experiment smoke tests fast; the real scale runs live
// in cmd/adgbench and the benchmarks.
func tinyParams() Params {
	return Params{
		Rows:      4000,
		Duration:  500 * time.Millisecond,
		TargetOps: 2000,
		Threads:   2,
		Seed:      7,
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	// Over tinyParams' 4 000 rows a query's fixed cost is most of the column
	// store's time, and its ratio to a row-store scan that reads a block at a
	// time says little (1.5x); from 32 000 rows up it is 3x. Serial scans:
	// beside other packages' tests on two cores a parallel scan waits for the
	// worker whose core was taken, in one phase and not in the other, and the
	// ratio swings 2x either way (1.6–7x over 16 runs; serial 2.4–3.7x).
	p := tinyParams()
	p.Rows, p.ScanParallel = 64000, 1
	res, err := RunFig9(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithQ1.Count == 0 || res.WithoutQ1.Count == 0 {
		t.Fatalf("no scan samples: %+v", res)
	}
	// The shape: the IMCS must be markedly faster even at small scale.
	if s := res.SpeedupQ1Median(); s < 2 {
		t.Fatalf("Q1 median speedup = %.2fx; expected the columnar path to win", s)
	}
	if s := res.SpeedupQ2Median(); s < 2 {
		t.Fatalf("Q2 median speedup = %.2fx", s)
	}
	if !strings.Contains(res.String(), "Q1 median") {
		t.Fatal("rendering broken")
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunFig10(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if s := res.SpeedupQ1Median(); s < 1.2 {
		t.Fatalf("Q1 median speedup with inserts = %.2fx; IMCS should still win", s)
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunTable2(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Ratio()
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("standby/primary ratio = %.2f; scan-only sides should be comparable", ratio)
	}
	if !strings.Contains(res.String(), "Primary") {
		t.Fatal("rendering broken")
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	p := tinyParams()
	res, err := RunFig11(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.TxnsCommitted == 0 || res.CVsApplied == 0 {
		t.Fatalf("no load applied: %+v", res)
	}
	if res.CatchupTime > 10*time.Second {
		t.Fatalf("catch-up took %v; apply cannot keep up", res.CatchupTime)
	}
	if len(res.PriLog) != 2 {
		t.Fatalf("expected 2 primary log series, got %d", len(res.PriLog))
	}
	if !strings.Contains(res.String(), "pri_log1") {
		t.Fatal("rendering broken")
	}
}

func TestCPUShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunCPU(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	// Offloading moves scan time to the standby. The standby-side shift is
	// the robust signal; the primary-side drop can be swamped by timing
	// distortion at smoke scale (e.g. under the race detector), so it only
	// gets a loose sanity bound.
	if res.OffloadSbyPct <= res.OnPrimarySbyPct {
		t.Fatalf("offload did not raise standby CPU: %.2f -> %.2f", res.OnPrimarySbyPct, res.OffloadSbyPct)
	}
	if res.OnPrimarySbyPct != 0 {
		t.Fatalf("standby CPU %.2f with scans on the primary; expected 0", res.OnPrimarySbyPct)
	}
	if res.OffloadPriPct > 2*res.OnPrimaryPriPct+5 {
		t.Fatalf("offload inflated primary CPU: %.2f -> %.2f", res.OnPrimaryPriPct, res.OffloadPriPct)
	}
}

func TestFleetOverloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	p := tinyParams()
	p.FleetSessions = 2000 // acceptance scale (10k) lives in BenchmarkFleetOverload
	res, err := RunFleetOverload(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatalf("overload never shed: %+v", res)
	}
	if res.ScansRun == 0 {
		t.Fatalf("no scan completed under overload: %+v", res)
	}
	// Bounded routing: placement latency must stay within the admission
	// machinery's own deadlines (queue timeout + router wait), not grow with
	// the pool size.
	if res.RouteP99Ms > 100 {
		t.Fatalf("routing p99 = %.1fms; admission control is not bounding waits", res.RouteP99Ms)
	}
	if res.BaselineCVsPerSec == 0 || res.LoadedCVsPerSec == 0 {
		t.Fatalf("apply phases did not run: %+v", res)
	}
	if !strings.Contains(res.String(), "ErrOverloaded") {
		t.Fatal("rendering broken")
	}
}

func TestGroupByShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunGroupBy(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups == 0 || res.IMCS.Count == 0 || res.RowStore.Count == 0 {
		t.Fatalf("no grouped samples: %+v", res)
	}
	if s := res.Speedup(); s < 1.2 {
		t.Fatalf("grouped median speedup = %.2fx; the encoded path should win", s)
	}
	if res.RowsEncoded == 0 {
		t.Fatal("grouped scan did no encoded-space folds")
	}
	if !strings.Contains(res.String(), "GROUP BY median") {
		t.Fatal("rendering broken")
	}
}
