// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document, so benchmark results can be archived and
// diffed across commits (make bench-json writes BENCH_<date>.json).
//
// Usage:
//
//	go test -bench=. -benchmem -run '^$' . | benchjson [-o out.json]
//
// It understands the standard benchmark line format — name, iteration count,
// then value/unit pairs (ns/op, B/op, allocs/op, and custom ReportMetric
// units such as cvs/s) — plus the goos/goarch/pkg/cpu context header.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and the
	// -cpu suffix, e.g. "BenchmarkScan/imcs-8".
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every value/unit pair on the line
	// (e.g. "ns/op": 1234.5, "B/op": 96, "allocs/op": 2, "cvs/s": 1.2e6).
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the output document.
type Doc struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Failover summarizes the role-transition benchmark when the run includes
	// BenchmarkFailover: warm-promotion latency vs the cold IMCS rebuild it
	// avoids, and the resulting speedup.
	Failover *FailoverSummary `json:"failover,omitempty"`
	// GroupBy summarizes BenchmarkGroupBy when present: the encoding-aware
	// grouped aggregate vs the row-at-a-time fallback, and the single-pass
	// multi-aggregate vs two separate scans.
	GroupBy *GroupBySummary `json:"groupby,omitempty"`
	// Freshness summarizes BenchmarkFreshness when present: end-to-end
	// commit-to-visible latency quantiles decomposed by pipeline stage, plus
	// the first-query visibility age.
	Freshness *FreshnessSummary `json:"freshness,omitempty"`
	// Watchdog summarizes BenchmarkWatchdog when present: the redo apply hot
	// path with the liveness watchdog running vs disabled, the derived
	// heartbeat overhead (budget < 2%), and the per-record heartbeat tick cost.
	Watchdog *WatchdogSummary `json:"watchdog,omitempty"`
	// Fleet summarizes BenchmarkFleetOverload when present: the reader fleet's
	// admission control under a 10k-session scan storm — routing quantiles,
	// placement/shed rates, and redo apply throughput under load vs the no-load
	// baseline (budget >= 90%).
	Fleet *FleetSummary `json:"fleet,omitempty"`
	// Morsel summarizes BenchmarkMorselScaling when present: the work-stealing
	// scan scheduler's speedup over the serial baseline at each worker count,
	// with per-query morsel and steal counts.
	Morsel *MorselSummary `json:"morsel,omitempty"`
	// Checkpoint summarizes BenchmarkCheckpointRestart when present: cold
	// restart via snapshot-restore-plus-redo-catch-up vs the full row-store
	// rebuild it replaces, the snapshot size, and the apply-interference ratio
	// while a checkpoint is in flight (budget: within a few percent of 100).
	Checkpoint *CheckpointSummary `json:"checkpoint,omitempty"`
}

// FailoverSummary is derived from BenchmarkFailover's reported metrics.
type FailoverSummary struct {
	PromoteMs   float64 `json:"promote_ms"`
	ColdRepopMs float64 `json:"coldrepop_ms"`
	Speedup     float64 `json:"speedup"`
}

// failoverSummary extracts the summary from a parsed benchmark set; nil when
// the run did not include BenchmarkFailover (or its metrics are incomplete).
func failoverSummary(benchmarks []Benchmark) *FailoverSummary {
	for _, b := range benchmarks {
		if name, _, _ := strings.Cut(b.Name, "-"); name != "BenchmarkFailover" {
			continue
		}
		promote, okP := b.Metrics["promote-ms"]
		cold, okC := b.Metrics["coldrepop-ms"]
		if !okP || !okC || promote <= 0 {
			return nil
		}
		return &FailoverSummary{
			PromoteMs:   promote,
			ColdRepopMs: cold,
			Speedup:     cold / promote,
		}
	}
	return nil
}

// GroupBySummary is derived from BenchmarkGroupBy's sub-benchmarks.
type GroupBySummary struct {
	// EncodedNs / RowFallbackNs are ns/op of the grouped aggregate over the
	// column store (run-level folds) vs the pure row-store fallback.
	EncodedNs     float64 `json:"encoded_ns"`
	RowFallbackNs float64 `json:"row_fallback_ns"`
	Speedup       float64 `json:"speedup"`
	// SinglePassNs / TwoScansNs are ns/op of one four-aggregate scan vs two
	// separate single-aggregate scans of the same column.
	SinglePassNs   float64 `json:"single_pass_ns"`
	TwoScansNs     float64 `json:"two_scans_ns"`
	SinglePassGain float64 `json:"single_pass_gain"`
	// HighCardDict* / CompositeKey* are the code-indexed general path over
	// the wide table: one dictionary key with 1 000 groups (direct-indexed
	// slab), and a VARCHAR + NUMBER key past the direct-index bound
	// (map-indexed slab). Zero when the run predates those sub-benchmarks.
	HighCardDictNs     float64 `json:"high_card_dict_ns,omitempty"`
	HighCardDictAllocs float64 `json:"high_card_dict_allocs,omitempty"`
	CompositeKeyNs     float64 `json:"composite_key_ns,omitempty"`
	CompositeKeyAllocs float64 `json:"composite_key_allocs,omitempty"`
}

// groupBySummary extracts the summary from a parsed benchmark set; nil when
// the run did not include BenchmarkGroupBy's comparison sub-benchmarks.
func groupBySummary(benchmarks []Benchmark) *GroupBySummary {
	ns, allocs := map[string]float64{}, map[string]float64{}
	for _, b := range benchmarks {
		name, _, _ := strings.Cut(b.Name, "-")
		if sub, ok := strings.CutPrefix(name, "BenchmarkGroupBy/"); ok {
			ns[sub], allocs[sub] = b.Metrics["ns/op"], b.Metrics["allocs/op"]
		}
	}
	s := &GroupBySummary{
		EncodedNs:     ns["EncodedIMCS"],
		RowFallbackNs: ns["RowFallback"],
		SinglePassNs:  ns["MultiAggSinglePass"],
		TwoScansNs:    ns["MultiAggTwoScans"],

		HighCardDictNs: ns["HighCardDict"], HighCardDictAllocs: allocs["HighCardDict"],
		CompositeKeyNs: ns["CompositeKey"], CompositeKeyAllocs: allocs["CompositeKey"],
	}
	if s.EncodedNs <= 0 || s.RowFallbackNs <= 0 || s.SinglePassNs <= 0 || s.TwoScansNs <= 0 {
		return nil
	}
	s.Speedup = s.RowFallbackNs / s.EncodedNs
	s.SinglePassGain = s.TwoScansNs / s.SinglePassNs
	return s
}

// FreshnessSummary is derived from BenchmarkFreshness's reported metrics.
type FreshnessSummary struct {
	// C2V* are end-to-end commit-to-visible quantiles: primary commit wall
	// clock (stamped into the redo frame) to standby QuerySCN publication.
	C2VP50Ms float64 `json:"c2v_p50_ms"`
	C2VP99Ms float64 `json:"c2v_p99_ms"`
	// QueryAge* are first-query visibility ages: commit to the first standby
	// query whose snapshot covered it.
	QueryAgeP50Ms float64 `json:"query_age_p50_ms"`
	QueryAgeP99Ms float64 `json:"query_age_p99_ms"`
	// Stages decomposes the pipeline in flow order (only observed stages).
	Stages []FreshnessStage `json:"stages"`
}

// FreshnessStage is one pipeline stage's latency contribution.
type FreshnessStage struct {
	Stage string  `json:"stage"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// freshnessStageOrder is the redo pipeline's flow order for stable output.
var freshnessStageOrder = []string{"shipwait", "ship", "merge", "dispatch", "apply", "mine", "journal", "publishwait", "flush", "publish"}

// freshnessSummary extracts the summary from a parsed benchmark set; nil when
// the run did not include BenchmarkFreshness.
func freshnessSummary(benchmarks []Benchmark) *FreshnessSummary {
	for _, b := range benchmarks {
		if name, _, _ := strings.Cut(b.Name, "-"); name != "BenchmarkFreshness" {
			continue
		}
		p50, okP := b.Metrics["c2v-p50-ms"]
		p99, okQ := b.Metrics["c2v-p99-ms"]
		if !okP || !okQ {
			return nil
		}
		s := &FreshnessSummary{
			C2VP50Ms:      p50,
			C2VP99Ms:      p99,
			QueryAgeP50Ms: b.Metrics["qage-p50-ms"],
			QueryAgeP99Ms: b.Metrics["qage-p99-ms"],
		}
		for _, stage := range freshnessStageOrder {
			sp50, ok := b.Metrics[stage+"-p50-ms"]
			if !ok {
				continue
			}
			s.Stages = append(s.Stages, FreshnessStage{
				Stage: stage, P50Ms: sp50, P99Ms: b.Metrics[stage+"-p99-ms"],
			})
		}
		return s
	}
	return nil
}

// WatchdogSummary is derived from BenchmarkWatchdog's sub-benchmarks.
type WatchdogSummary struct {
	// ApplyOnNs / ApplyOffNs are ns/op of the end-to-end redo apply loop with
	// the watchdog evaluating at its production interval vs disabled.
	ApplyOnNs  float64 `json:"apply_on_ns"`
	ApplyOffNs float64 `json:"apply_off_ns"`
	// OverheadPct is the watchdog's cost on the apply hot path as a percentage
	// of the watchdog-off baseline. Benchmark noise can make it slightly
	// negative; the acceptance budget is < 2%.
	OverheadPct float64 `json:"overhead_pct"`
	// TickNs is the isolated cost of one obs.Progress heartbeat tick (the
	// per-record instrument the apply workers always pay, watchdog or not).
	TickNs float64 `json:"tick_ns"`
}

// watchdogSummary extracts the summary from a parsed benchmark set; nil when
// the run did not include BenchmarkWatchdog's On/Off pair.
func watchdogSummary(benchmarks []Benchmark) *WatchdogSummary {
	ns := map[string]float64{}
	for _, b := range benchmarks {
		name, _, _ := strings.Cut(b.Name, "-")
		if sub, ok := strings.CutPrefix(name, "BenchmarkWatchdog/"); ok {
			ns[sub] = b.Metrics["ns/op"]
		}
	}
	s := &WatchdogSummary{
		ApplyOnNs:  ns["ApplyOn"],
		ApplyOffNs: ns["ApplyOff"],
		TickNs:     ns["HeartbeatTick"],
	}
	if s.ApplyOnNs <= 0 || s.ApplyOffNs <= 0 {
		return nil
	}
	s.OverheadPct = (s.ApplyOnNs - s.ApplyOffNs) / s.ApplyOffNs * 100
	return s
}

// FleetSummary is derived from BenchmarkFleetOverload's reported metrics.
type FleetSummary struct {
	// Sessions is the concurrent scan-session pool size the storm ran with.
	Sessions float64 `json:"sessions"`
	// RouteP50Ms / RouteP99Ms are placement-latency quantiles across every
	// router Place attempt, sheds included — the "bounded p99" claim.
	RouteP50Ms float64 `json:"route_p50_ms"`
	RouteP99Ms float64 `json:"route_p99_ms"`
	// PlacedPerSec / ShedPerSec are admission outcomes over the storm: sessions
	// placed on a reader vs shed with ErrOverloaded at the admission gate.
	PlacedPerSec float64 `json:"placed_per_sec"`
	ShedPerSec   float64 `json:"shed_per_sec"`
	// ApplyBaseCVs / ApplyLoadCVs are redo apply throughput (CVs/s) without and
	// with the storm; ApplyRatioPct is loaded/baseline ×100 (budget >= 90).
	ApplyBaseCVs  float64 `json:"apply_base_cvs_per_sec"`
	ApplyLoadCVs  float64 `json:"apply_load_cvs_per_sec"`
	ApplyRatioPct float64 `json:"apply_ratio_pct"`
}

// fleetSummary extracts the summary from a parsed benchmark set; nil when the
// run did not include BenchmarkFleetOverload (or its metrics are incomplete).
func fleetSummary(benchmarks []Benchmark) *FleetSummary {
	for _, b := range benchmarks {
		if name, _, _ := strings.Cut(b.Name, "-"); name != "BenchmarkFleetOverload" {
			continue
		}
		base, okB := b.Metrics["apply-base-cvs/s"]
		load, okL := b.Metrics["apply-load-cvs/s"]
		p99, okP := b.Metrics["route-p99-ms"]
		if !okB || !okL || !okP || base <= 0 {
			return nil
		}
		return &FleetSummary{
			Sessions:      b.Metrics["sessions"],
			RouteP50Ms:    b.Metrics["route-p50-ms"],
			RouteP99Ms:    p99,
			PlacedPerSec:  b.Metrics["placed/s"],
			ShedPerSec:    b.Metrics["shed/s"],
			ApplyBaseCVs:  base,
			ApplyLoadCVs:  load,
			ApplyRatioPct: load / base * 100,
		}
	}
	return nil
}

// MorselSummary is derived from BenchmarkMorselScaling's sub-benchmarks: one
// point per worker count, each with its speedup over the serial (P1) run.
type MorselSummary struct {
	// SerialNs is the P1 baseline ns/op the speedups are computed against.
	SerialNs float64 `json:"serial_ns"`
	// Points holds one entry per worker count, in sub-benchmark order.
	Points []MorselPoint `json:"points"`
}

// MorselPoint is one worker-count measurement of the scaling sweep.
type MorselPoint struct {
	// Workers is the requested scan parallelism (PMax reports GOMAXPROCS).
	Workers float64 `json:"workers"`
	Ns      float64 `json:"ns"`
	// Speedup is serial ns/op over this point's ns/op (1.0 at P1).
	Speedup float64 `json:"speedup"`
	// MorselsPerOp / StealsPerOp are per-query scheduling granules and
	// off-affinity executions.
	MorselsPerOp float64 `json:"morsels_per_op"`
	StealsPerOp  float64 `json:"steals_per_op"`
}

// morselSummary extracts the summary from a parsed benchmark set; nil when
// the run did not include BenchmarkMorselScaling's serial baseline.
func morselSummary(benchmarks []Benchmark) *MorselSummary {
	s := &MorselSummary{}
	for _, b := range benchmarks {
		name, _, _ := strings.Cut(b.Name, "-")
		if !strings.HasPrefix(name, "BenchmarkMorselScaling/") {
			continue
		}
		p := MorselPoint{
			Workers:      b.Metrics["workers"],
			Ns:           b.Metrics["ns/op"],
			MorselsPerOp: b.Metrics["morsels/op"],
			StealsPerOp:  b.Metrics["steals/op"],
		}
		if strings.HasSuffix(name, "/P1") {
			s.SerialNs = p.Ns
		}
		s.Points = append(s.Points, p)
	}
	if s.SerialNs <= 0 || len(s.Points) == 0 {
		return nil
	}
	for i := range s.Points {
		if s.Points[i].Ns > 0 {
			s.Points[i].Speedup = s.SerialNs / s.Points[i].Ns
		}
	}
	return s
}

// CheckpointSummary is derived from BenchmarkCheckpointRestart's metrics.
type CheckpointSummary struct {
	// RestoreMs is restart-to-serving restoring the newest snapshot and
	// replaying only redo past its checkpoint SCN; ColdRebuildMs is the same
	// restart forced onto the full row-store rebuild path (budget: >= 10x).
	RestoreMs     float64 `json:"restore_ms"`
	ColdRebuildMs float64 `json:"cold_rebuild_ms"`
	Speedup       float64 `json:"speedup"`
	// SnapshotBytes is the on-disk checkpoint file size.
	SnapshotBytes float64 `json:"snapshot_bytes"`
	// ApplyRatioPct is paced churn-and-sync wall time with one checkpoint in
	// flight as a percentage of the undisturbed baseline.
	ApplyRatioPct float64 `json:"apply_ratio_pct"`
}

// checkpointSummary extracts the summary from a parsed benchmark set; nil when
// the run did not include BenchmarkCheckpointRestart (or it is incomplete).
func checkpointSummary(benchmarks []Benchmark) *CheckpointSummary {
	for _, b := range benchmarks {
		if name, _, _ := strings.Cut(b.Name, "-"); name != "BenchmarkCheckpointRestart" {
			continue
		}
		restore, okR := b.Metrics["restore-ms"]
		cold, okC := b.Metrics["coldrebuild-ms"]
		if !okR || !okC || restore <= 0 {
			return nil
		}
		return &CheckpointSummary{
			RestoreMs:     restore,
			ColdRebuildMs: cold,
			Speedup:       cold / restore,
			SnapshotBytes: b.Metrics["snapshot-bytes"],
			ApplyRatioPct: b.Metrics["apply-ckpt-ratio-pct"],
		}
	}
	return nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
}

// parse reads `go test -bench` output and collects the context header and
// every benchmark result line; unrecognized lines (PASS, ok, test logs) are
// ignored so the tool can sit directly on a piped `go test` run.
func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	doc.Failover = failoverSummary(doc.Benchmarks)
	doc.GroupBy = groupBySummary(doc.Benchmarks)
	doc.Freshness = freshnessSummary(doc.Benchmarks)
	doc.Watchdog = watchdogSummary(doc.Benchmarks)
	doc.Fleet = fleetSummary(doc.Benchmarks)
	doc.Morsel = morselSummary(doc.Benchmarks)
	doc.Checkpoint = checkpointSummary(doc.Benchmarks)
	return doc, sc.Err()
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName-8   1000   1234567 ns/op   96 B/op   2 allocs/op   5.6 cvs/s
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
