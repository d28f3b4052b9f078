// Command adgtop is a live terminal view of a running standby's redo/IMCS
// pipeline, in the spirit of top(1). It polls the instance's /debug/stats
// endpoint — served when standby.Config.MetricsAddr (or dbimadg.Config
// MetricsAddr) is set — and prints one line per interval: apply, mine and
// flush rates computed from counter deltas, plus the current derived lag
// gauges (the quantities behind the paper's Fig. 11 lag claims).
//
// Usage:
//
//	adgtop -addr 127.0.0.1:9187 [-interval 1s] [-n 0] [-queries 5] [-slow] [-freshness 3] [-health] [-fleet] [-imcs]
//
// Run cmd/adgdemo with -metrics 127.0.0.1:9187 -hold 2m in one terminal and
// adgtop in another to watch the pipeline drain. With -queries N, each sample
// is followed by a pane of the N most recent query profiles from the
// instance's /debug/queries endpoint (-slow restricts it to the slow-query
// log). With -freshness N, each sample is followed by the commit-to-visible
// SLO summary and the N most recent per-transaction span waterfalls from
// /debug/freshness. With -health, each sample is followed by the liveness
// watchdog's verdict and per-stage progress/backlog table from /debug/health
// (the endpoint a stalled pipeline answers with 503).
// With -fleet, each sample is followed by the reader-fleet pane from the
// /debug/stats "fleet" and "router" blocks: per-reader state, QuerySCN lag
// against the fleet watermark, in-flight/queued/shed counts, and the router's
// cumulative placement totals with per-interval rates.
// With -imcs, each sample is followed by the IMCS pane from the /debug/stats
// "imcs" and "population" blocks: what the store holds and what its rebuilds
// cost — how many were merges, how many rows they read again against how many
// they carried over, and the time per build of either kind.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"dbimadg/internal/obs"
	"dbimadg/internal/standby"
)

// standbyStats mirrors the exported fields of standby.Stats that adgtop
// renders; extra JSON fields are ignored.
type standbyStats struct {
	QuerySCN         uint64
	AppliedWatermark uint64
	DispatchedSCN    uint64
	RecordsApplied   int64
	MinedRecords     int64
	FlushedRecords   int64
	QuerySCNAdvances int64
}

// fleetReaderStats mirrors one row of the /debug/stats "fleet" block's
// per-reader table (fleet.ReaderStats).
type fleetReaderStats struct {
	ID       int    `json:"id"`
	State    string `json:"state"`
	QuerySCN uint64 `json:"query_scn"`
	LagSCN   uint64 `json:"lag_scn"`
	InFlight int    `json:"in_flight"`
	Queued   int    `json:"queued"`
	Admitted int64  `json:"admitted"`
	Shed     int64  `json:"shed"`
	PopUnits int64  `json:"populated_units"`
	Restored int64  `json:"restored_units"`
}

// fleetStats mirrors the /debug/stats "fleet" block (fleet.Stats).
type fleetStats struct {
	SpecReaders int                `json:"spec_readers"`
	Watermark   uint64             `json:"watermark_scn"`
	Readers     []fleetReaderStats `json:"readers"`
}

// routerTotals mirrors the /debug/stats "router" block (router.Totals).
type routerTotals struct {
	Placed     int64   `json:"placed"`
	Shed       int64   `json:"shed"`
	NoReader   int64   `json:"no_reader"`
	PlaceP50MS float64 `json:"place_p50_ms"`
	PlaceP99MS float64 `json:"place_p99_ms"`
}

// snapshot is the subset of the /debug/stats document adgtop consumes. Fleet
// and Router stay nil on nodes that run no reader fleet.
// storeStats and populationStats mirror the /debug/stats "imcs" and
// "population" blocks (imcs.StoreStats, imcs.EngineStats).
type storeStats struct {
	PopulatedUnits int
	Rows           int
	InvalidRows    int
	MemBytes       int
	DeltaEntries   int
	DeltaBytes     int
	OpaqueRows     int
}

type populationStats struct {
	UnitsPopulated   int64
	UnitsRepopulated int64
	UnitsMerged      int64
	RowsReread       int64
	RowsCarried      int64
	ColsPatched      int64
	ColsShared       int64
	FullBuildTime    time.Duration
	MergeBuildTime   time.Duration
}

type snapshot struct {
	Store      storeStats         `json:"imcs"`
	Population populationStats    `json:"population"`
	Standby    standbyStats       `json:"standby"`
	Gauges     map[string]float64 `json:"gauges"`
	Fleet      *fleetStats        `json:"fleet"`
	Router     *routerTotals      `json:"router"`
}

// queryEntry is the subset of a /debug/queries record adgtop renders.
type queryEntry struct {
	Seq       int64         `json:"seq"`
	SQL       string        `json:"sql"`
	Table     string        `json:"table"`
	WallNanos int64         `json:"wall_ns"`
	Rows      int64         `json:"rows"`
	Path      string        `json:"path"`
	Slow      bool          `json:"slow"`
	Profile   *queryProfile `json:"profile"`
}

// queryProfile is the slice of the embedded scanengine.Profile that the
// queries pane shows: the morsel scheduler's per-query actuals, and what the
// query took from the row store beside the column store — the usual reason a
// scan of a populated table is slow.
type queryProfile struct {
	Parallel     int   `json:"parallel"`
	MorselRows   int   `json:"morsel_rows"`
	Morsels      int64 `json:"morsels"`
	Steals       int64 `json:"steals"`
	RowsInvalid  int64 `json:"rows_invalid"`
	RowsDelta    int64 `json:"rows_delta"`
	RowsTail     int64 `json:"rows_tail"`
	RowsRowStore int64 `json:"rows_rowstore"`
	RowBlocks    int64 `json:"row_blocks"`
	RowBatches   int64 `json:"row_batches"`
}

// queriesDoc is the /debug/queries response envelope.
type queriesDoc struct {
	SlowThresholdMS float64      `json:"slow_threshold_ms"`
	Total           int64        `json:"total"`
	SlowTotal       int64        `json:"slow_total"`
	Queries         []queryEntry `json:"queries"`
}

func fetch(client *http.Client, url string) (snapshot, error) {
	var s snapshot
	err := fetchJSON(client, url, &s)
	return s, err
}

func fetchJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// printQueries renders the recent-queries pane under a sample line.
func printQueries(client *http.Client, addr string, n int, slowOnly bool) {
	url := fmt.Sprintf("http://%s/debug/queries?n=%d", addr, n)
	if slowOnly {
		url += "&slow=1"
	}
	var doc queriesDoc
	if err := fetchJSON(client, url, &doc); err != nil {
		fmt.Printf("  queries: %v\n", err)
		return
	}
	fmt.Printf("  queries: %d recorded, %d slow (threshold %.0fms)\n",
		doc.Total, doc.SlowTotal, doc.SlowThresholdMS)
	for _, q := range doc.Queries {
		mark := " "
		if q.Slow {
			mark = "!"
		}
		label := q.SQL
		if label == "" {
			label = "scan " + q.Table
		}
		sched := ""
		if p := q.Profile; p != nil && p.Morsels > 0 {
			sched = fmt.Sprintf("  [p=%d morsels=%d", p.Parallel, p.Morsels)
			if p.Steals > 0 {
				sched += fmt.Sprintf(" steals=%d", p.Steals)
			}
			sched += "]"
		}
		if p := q.Profile; p != nil && p.RowBlocks > 0 {
			sched += fmt.Sprintf("  [rowstore: invalid=%d tail=%d range=%d blocks=%d batches=%d]",
				p.RowsInvalid, p.RowsTail, p.RowsRowStore, p.RowBlocks, p.RowBatches)
		}
		if p := q.Profile; p != nil && p.RowsDelta > 0 {
			sched += fmt.Sprintf("  [delta=%d]", p.RowsDelta)
		}
		fmt.Printf("  %s #%-6d %-8s %8.3fms %8d rows  %s%s\n",
			mark, q.Seq, q.Path, float64(q.WallNanos)/1e6, q.Rows, label, sched)
	}
}

// freshnessDoc is the /debug/freshness response envelope.
type freshnessDoc struct {
	Summary obs.FreshnessSummary `json:"summary"`
	Spans   []obs.SpanJSON       `json:"spans"`
}

// printFreshness renders the commit-to-visible pane: the SLO quantile summary
// followed by the n most recent span waterfalls, one segment chain per span.
func printFreshness(client *http.Client, addr string, n int) {
	var doc freshnessDoc
	if err := fetchJSON(client, fmt.Sprintf("http://%s/debug/freshness?n=%d", addr, n), &doc); err != nil {
		fmt.Printf("  freshness: %v\n", err)
		return
	}
	st := doc.Summary.Stats
	c2v := doc.Summary.CommitToVisible
	fmt.Printf("  freshness: 1/%d sampled, %d complete, %d truncated, %d open | c2v p50 %.2fms p95 %.2fms p99 %.2fms\n",
		st.SampleEvery, st.Completed, st.Truncated, st.Open,
		c2v.P50*1e3, c2v.P95*1e3, c2v.P99*1e3)
	for _, sp := range doc.Spans {
		line := fmt.Sprintf("  scn %-8d txn %-6d %-9s %8.3fms  ",
			sp.SCN, sp.Txn, sp.State, float64(sp.CommitToVisible)/1e6)
		for i, seg := range sp.Segments {
			if i > 0 {
				line += " > "
			}
			line += fmt.Sprintf("%s %.3fms", seg.Stage, float64(seg.Dur)/1e6)
		}
		if sp.TruncatedWhy != "" {
			line += " [" + sp.TruncatedWhy + "]"
		}
		fmt.Println(line)
	}
}

// printHealth renders the liveness pane: the watchdog verdict and the
// per-stage progress/backlog table from /debug/health. The endpoint answers
// 503 when the watchdog has declared a stall — that is a payload, not an
// error, so the pane fetches it with its own status handling.
func printHealth(client *http.Client, addr string) {
	resp, err := client.Get(fmt.Sprintf("http://%s/debug/health", addr))
	if err != nil {
		fmt.Printf("  health: %v\n", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		fmt.Printf("  health: status %d\n", resp.StatusCode)
		return
	}
	var rep obs.HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		fmt.Printf("  health: %v\n", err)
		return
	}
	line := fmt.Sprintf("  health: %s", rep.Verdict)
	if len(rep.Paused) > 0 {
		line += fmt.Sprintf(" (paused: %s)", strings.Join(rep.Paused, ", "))
	}
	if rep.Stalls > 0 {
		line += fmt.Sprintf(", %d stall(s) detected", rep.Stalls)
	}
	fmt.Println(line)
	for _, s := range rep.Stages {
		backlog := fmt.Sprintf("%d", s.Backlog)
		if s.Backlog < 0 {
			backlog = "-"
		}
		fmt.Printf("  %-9s %-8s count=%-10d backlog=%-8s advance %.1fs ago\n",
			s.Stage, s.State, s.Count, backlog, s.SinceAdvance)
	}
}

// printFleet renders the reader-fleet pane: the router's routing totals (with
// per-interval placement/shed rates from counter deltas) and one line per
// fleet reader — state, QuerySCN lag against the fleet watermark, in-flight
// and queued scans, cumulative admissions and sheds, populated IMCUs.
func printFleet(cur, prev snapshot, dt float64) {
	if cur.Fleet == nil {
		fmt.Println("  fleet: no fleet block on this node")
		return
	}
	rate := func(cur, prev int64) float64 {
		if dt <= 0 {
			return 0
		}
		return float64(cur-prev) / dt
	}
	f := cur.Fleet
	ready := 0
	for _, r := range f.Readers {
		if r.State == "READY" {
			ready++
		}
	}
	line := fmt.Sprintf("  fleet: %d/%d readers ready, watermark scn %d", ready, f.SpecReaders, f.Watermark)
	if rt := cur.Router; rt != nil {
		line += fmt.Sprintf(" | router placed %d shed %d no-reader %d", rt.Placed, rt.Shed, rt.NoReader)
		if prev.Router != nil {
			line += fmt.Sprintf(" (%.0f/s placed, %.0f/s shed)",
				rate(rt.Placed, prev.Router.Placed), rate(rt.Shed, prev.Router.Shed))
		}
		line += fmt.Sprintf(" | place p50 %.3fms p99 %.3fms", rt.PlaceP50MS, rt.PlaceP99MS)
	}
	fmt.Println(line)
	for _, r := range f.Readers {
		fmt.Printf("  reader %-3d %-12s scn=%-10d lag=%-8d inflight=%-3d queued=%-3d admitted=%-10d shed=%-10d pop=%-6d restored=%d\n",
			r.ID, r.State, r.QuerySCN, r.LagSCN, r.InFlight, r.Queued, r.Admitted, r.Shed, r.PopUnits, r.Restored)
	}
}

// printIMCS renders the IMCS pane: the store's contents, then what rebuilding
// it has cost since start and in the last interval.
func printIMCS(cur, prev snapshot) {
	st, p, q := cur.Store, cur.Population, prev.Population
	fmt.Printf("  imcs: %d units, %d rows (%d invalid, %d of them opaque), %.1fMB; deltas: %d entries, %.2fMB; scans served %.0f rows from deltas\n",
		st.PopulatedUnits, st.Rows, st.InvalidRows, st.OpaqueRows, float64(st.MemBytes)/(1<<20),
		st.DeltaEntries, float64(st.DeltaBytes)/(1<<20), cur.Gauges["scan_rows_from_delta_total"])
	per := func(d time.Duration, n int64) time.Duration {
		if n == 0 {
			return 0
		}
		return (d / time.Duration(n)).Round(time.Microsecond)
	}
	full := p.UnitsPopulated + p.UnitsRepopulated - p.UnitsMerged
	fmt.Printf("  builds: %d full (%v each), %d by merge (%v each); rows read %d, carried over %d, values patched from deltas %d, columns shared %d; last interval +%d full +%d merged, read %d carried %d\n",
		full, per(p.FullBuildTime, full), p.UnitsMerged, per(p.MergeBuildTime, p.UnitsMerged),
		p.RowsReread, p.RowsCarried, p.ColsPatched, p.ColsShared,
		full-(q.UnitsPopulated+q.UnitsRepopulated-q.UnitsMerged), p.UnitsMerged-q.UnitsMerged,
		p.RowsReread-q.RowsReread, p.RowsCarried-q.RowsCarried)
}

const headerEvery = 20

func header() {
	fmt.Printf("%8s  %7s  %9s  %9s  %9s  %9s  %8s  %8s  %7s  %7s  %7s  %8s  %8s\n",
		"time", "role", "applied/s", "mined/s", "flushed/s", "scnadv/s",
		"applyLag", "stale", "jrnTxn", "ctPend", "popPend", "placed/s", "shed/s")
}

// routerRates renders the default pane's router-totals columns from counter
// deltas; "-" on nodes without a router block.
func routerRates(cur, prev snapshot, dt float64) (string, string) {
	if cur.Router == nil || prev.Router == nil || dt <= 0 {
		return "-", "-"
	}
	return fmt.Sprintf("%.0f", float64(cur.Router.Placed-prev.Router.Placed)/dt),
		fmt.Sprintf("%.0f", float64(cur.Router.Shed-prev.Router.Shed)/dt)
}

// roleOf renders the node's broker role. The broker_role gauge is registered
// by the role-transition broker and flips to 1 at promotion; a node without a
// broker (or before any transition) reports STANDBY.
func roleOf(g map[string]float64) string {
	if g["broker_role"] >= 1 {
		return "PRIMARY"
	}
	return "STANDBY"
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9187", "standby metrics endpoint (host:port)")
		interval = flag.Duration("interval", time.Second, "poll interval")
		count    = flag.Int("n", 0, "number of samples to print (0 = until interrupted)")
		queries  = flag.Int("queries", 0, "show the N most recent query profiles under each sample (0 = off)")
		slowOnly = flag.Bool("slow", false, "with -queries, show only slow-query-log entries")
		fresh    = flag.Int("freshness", 0, "show the commit-to-visible summary and N span waterfalls under each sample (0 = off)")
		health   = flag.Bool("health", false, "show the watchdog verdict and per-stage liveness table under each sample")
		fleetP   = flag.Bool("fleet", false, "show the reader-fleet table and router totals under each sample")
		imcsP    = flag.Bool("imcs", false, "show the column store's contents and its rebuild costs (full/merge, rows read/carried) under each sample")
	)
	flag.Parse()

	url := "http://" + *addr + "/debug/stats"
	client := &http.Client{Timeout: 5 * time.Second}

	prev, err := fetch(client, url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adgtop: %v\n", err)
		os.Exit(1)
	}
	prevAt := time.Now()

	for line := 0; *count == 0 || line < *count; line++ {
		time.Sleep(*interval)
		cur, err := fetch(client, url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adgtop: %v\n", err)
			os.Exit(1)
		}
		now := time.Now()
		dt := now.Sub(prevAt).Seconds()
		rate := func(cur, prev int64) float64 {
			if dt <= 0 {
				return 0
			}
			return float64(cur-prev) / dt
		}
		if line%headerEvery == 0 {
			header()
		}
		placedRate, shedRate := routerRates(cur, prev, dt)
		fmt.Printf("%8s  %7s  %9.0f  %9.0f  %9.0f  %9.1f  %8.0f  %8.0f  %7.0f  %7.0f  %7.0f  %8s  %8s\n",
			now.Format("15:04:05"),
			roleOf(cur.Gauges),
			rate(cur.Standby.RecordsApplied, prev.Standby.RecordsApplied),
			rate(cur.Standby.MinedRecords, prev.Standby.MinedRecords),
			rate(cur.Standby.FlushedRecords, prev.Standby.FlushedRecords),
			rate(cur.Standby.QuerySCNAdvances, prev.Standby.QuerySCNAdvances),
			cur.Gauges[standby.GaugeApplyLag],
			cur.Gauges[standby.GaugeQueryStaleness],
			cur.Gauges[standby.GaugeJournalTxns],
			cur.Gauges[standby.GaugeCommitPending],
			cur.Gauges["imcs_population_pending"],
			placedRate, shedRate,
		)
		if *queries > 0 {
			printQueries(client, *addr, *queries, *slowOnly)
		}
		if *fresh > 0 {
			printFreshness(client, *addr, *fresh)
		}
		if *health {
			printHealth(client, *addr)
		}
		if *fleetP {
			printFleet(cur, prev, dt)
		}
		if *imcsP {
			printIMCS(cur, prev)
		}
		prev, prevAt = cur, now
	}
}
