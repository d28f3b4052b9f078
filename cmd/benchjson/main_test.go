package main

import (
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: dbimadg
cpu: Fake CPU @ 3.00GHz
BenchmarkScan/imcs-8         	    1203	    987654 ns/op	     320 B/op	       7 allocs/op
BenchmarkScan/rowstore-8     	      61	  19876543 ns/op	 1048576 B/op	    2048 allocs/op	  52.5 cvs/s
some test log line
PASS
ok  	dbimadg	4.321s
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.Pkg != "dbimadg" {
		t.Fatalf("bad header: %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkScan/imcs-8" || b.Iterations != 1203 {
		t.Fatalf("bad benchmark: %+v", b)
	}
	if b.Metrics["ns/op"] != 987654 || b.Metrics["allocs/op"] != 7 {
		t.Fatalf("bad metrics: %+v", b.Metrics)
	}
	if doc.Benchmarks[1].Metrics["cvs/s"] != 52.5 {
		t.Fatalf("custom metric not parsed: %+v", doc.Benchmarks[1].Metrics)
	}
}

func TestFailoverSummary(t *testing.T) {
	in := `goos: linux
BenchmarkFailover-8 	       3	 342269399 ns/op	        97.79 coldrepop-ms	         0.09735 promote-ms
PASS
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	fs := doc.Failover
	if fs == nil {
		t.Fatal("failover summary not extracted")
	}
	if fs.PromoteMs != 0.09735 || fs.ColdRepopMs != 97.79 {
		t.Fatalf("bad summary: %+v", fs)
	}
	if fs.Speedup < 1000 || fs.Speedup > 1010 {
		t.Fatalf("speedup = %v, want ~1004", fs.Speedup)
	}
}

func TestFailoverSummaryAbsent(t *testing.T) {
	in := "BenchmarkScan-8 100 123 ns/op\n"
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Failover != nil {
		t.Fatalf("spurious failover summary: %+v", doc.Failover)
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkOnly",
		"BenchmarkOddFields-8 100 123",
		"BenchmarkBadIters-8 abc 123 ns/op",
		"BenchmarkBadValue-8 100 abc ns/op",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted malformed line", line)
		}
	}
}

func TestGroupBySummary(t *testing.T) {
	in := `goos: linux
BenchmarkGroupBy/EncodedIMCS-8         	    4000	    300000 ns/op
BenchmarkGroupBy/RowFallback-8         	     300	   4500000 ns/op
BenchmarkGroupBy/MultiAggSinglePass-8  	    5000	    200000 ns/op
BenchmarkGroupBy/MultiAggTwoScans-8    	    2500	    440000 ns/op
BenchmarkGroupBy/HighCardDict-8        	     700	   1700000 ns/op	  600000 B/op	     200 allocs/op
BenchmarkGroupBy/CompositeKey-8        	      30	  45000000 ns/op	44000000 B/op	     900 allocs/op
PASS
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	gs := doc.GroupBy
	if gs == nil {
		t.Fatal("groupby summary not extracted")
	}
	if gs.HighCardDictNs != 1700000 || gs.HighCardDictAllocs != 200 ||
		gs.CompositeKeyNs != 45000000 || gs.CompositeKeyAllocs != 900 {
		t.Fatalf("bad wide-table rows: %+v", gs)
	}
	if gs.EncodedNs != 300000 || gs.RowFallbackNs != 4500000 {
		t.Fatalf("bad summary: %+v", gs)
	}
	if gs.Speedup != 15 || gs.SinglePassGain != 2.2 {
		t.Fatalf("bad ratios: %+v", gs)
	}
}

func TestGroupBySummaryAbsent(t *testing.T) {
	in := "BenchmarkGroupBy/EncodedIMCS-8 100 123 ns/op\n"
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GroupBy != nil {
		t.Fatalf("spurious groupby summary: %+v", doc.GroupBy)
	}
}

func TestFreshnessSummary(t *testing.T) {
	in := `goos: linux
BenchmarkFreshness-8 	 50	 2500000 ns/op	 2.0 c2v-p50-ms	 55.0 c2v-p99-ms	 2.5 qage-p50-ms	 150.0 qage-p99-ms	 0.01 apply-p50-ms	 22.0 apply-p99-ms	 0.002 flush-p50-ms	 0.02 flush-p99-ms	 0.0001 merge-p50-ms	 0.0002 merge-p99-ms
PASS
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	fs := doc.Freshness
	if fs == nil {
		t.Fatal("freshness summary not extracted")
	}
	if fs.C2VP50Ms != 2.0 || fs.C2VP99Ms != 55.0 || fs.QueryAgeP50Ms != 2.5 {
		t.Fatalf("bad summary: %+v", fs)
	}
	// Stages come out in pipeline flow order, observed stages only.
	if len(fs.Stages) != 3 || fs.Stages[0].Stage != "merge" || fs.Stages[1].Stage != "apply" || fs.Stages[2].Stage != "flush" {
		t.Fatalf("bad stage order: %+v", fs.Stages)
	}
	if fs.Stages[1].P99Ms != 22.0 {
		t.Fatalf("bad stage quantile: %+v", fs.Stages[1])
	}
}

func TestWatchdogSummary(t *testing.T) {
	in := `goos: linux
BenchmarkWatchdog/ApplyOn-8        	    1000	   1010000 ns/op	  42.0 cvs/s
BenchmarkWatchdog/ApplyOff-8       	    1000	   1000000 ns/op	  42.5 cvs/s
BenchmarkWatchdog/HeartbeatTick-8  	100000000	         2.5 ns/op
PASS
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	ws := doc.Watchdog
	if ws == nil {
		t.Fatal("watchdog summary not extracted")
	}
	if ws.ApplyOnNs != 1010000 || ws.ApplyOffNs != 1000000 || ws.TickNs != 2.5 {
		t.Fatalf("bad summary: %+v", ws)
	}
	if ws.OverheadPct < 0.99 || ws.OverheadPct > 1.01 {
		t.Fatalf("overhead = %v%%, want ~1%%", ws.OverheadPct)
	}
}

func TestWatchdogSummaryAbsent(t *testing.T) {
	in := "BenchmarkWatchdog/HeartbeatTick-8 100 2.5 ns/op\n"
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Watchdog != nil {
		t.Fatalf("spurious watchdog summary: %+v", doc.Watchdog)
	}
}

func TestFleetSummary(t *testing.T) {
	in := `goos: linux
BenchmarkFleetOverload 	       1	4669214031 ns/op	       149.8 apply-base-cvs/s	       149.7 apply-load-cvs/s	        99.94 apply-ratio-pct	        48.88 placed/s	         0.0006554 route-p50-ms	         5.598 route-p99-ms	     10000 sessions	     23436 shed/s
PASS
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	fs := doc.Fleet
	if fs == nil {
		t.Fatal("fleet summary not extracted")
	}
	if fs.Sessions != 10000 || fs.RouteP99Ms != 5.598 || fs.ShedPerSec != 23436 {
		t.Fatalf("bad summary: %+v", fs)
	}
	if fs.ApplyRatioPct < 99.9 || fs.ApplyRatioPct > 100 {
		t.Fatalf("apply ratio = %v%%, want ~99.93%%", fs.ApplyRatioPct)
	}
}

func TestFleetSummaryAbsent(t *testing.T) {
	in := "BenchmarkFleetOverload-8 1 123 ns/op 5.5 route-p99-ms\n"
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Fleet != nil {
		t.Fatalf("spurious fleet summary: %+v", doc.Fleet)
	}
}

func TestFreshnessSummaryAbsent(t *testing.T) {
	in := "BenchmarkFig9_Q1_StandbyIMCS-8 100 123 ns/op\n"
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Freshness != nil {
		t.Fatalf("spurious freshness summary: %+v", doc.Freshness)
	}
}
