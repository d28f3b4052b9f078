// Command adgbench regenerates the paper's evaluation (§IV): every figure and
// table, at a configurable scale. Without -experiment it runs them all.
//
// Usage:
//
//	adgbench [-experiment fig9|fig10|table2|fig11|cpu|groupby|fleet|morsel|all]
//	         [-rows N] [-duration D] [-ops N] [-threads N] [-seed N]
//	         [-sessions N] [-telemetry]
//
// The paper's setup is 6M rows at 4000 ops/s for an hour on Exadata; the
// defaults here (300k rows, 10s per phase) reproduce the shapes — who wins
// and by roughly what factor — at laptop scale. See EXPERIMENTS.md for
// recorded paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dbimadg/internal/experiments"
	"dbimadg/internal/obs"
	"dbimadg/internal/scanengine"
)

func main() {
	var (
		exp      = flag.String("experiment", "all", "fig9 | fig10 | table2 | fig11 | cpu | groupby | fleet | morsel | all")
		rows     = flag.Int("rows", 300000, "initial wide-table rows (paper: 6,000,000)")
		duration = flag.Duration("duration", 10*time.Second, "measured phase duration (paper: 1h)")
		ops      = flag.Int("ops", 0, "target DML throughput, ops/s (0 = auto-scale with rows; paper: 4000 on 6M rows)")
		threads  = flag.Int("threads", 0, "workload driver threads (0 = auto)")
		seed     = flag.Int64("seed", 1, "workload seed")
		sessions = flag.Int("sessions", 0, "fleet experiment's concurrent scan-session pool (0 = 10,000)")
		telem    = flag.Bool("telemetry", false, "print the standby telemetry registry snapshot after each measured phase")
	)
	flag.Parse()

	p := experiments.Params{
		Rows:          *rows,
		Duration:      *duration,
		TargetOps:     *ops,
		Threads:       *threads,
		Seed:          *seed,
		FleetSessions: *sessions,
	}
	if *telem {
		p.SnapshotSink = func(phase string, snap obs.Snapshot) {
			fmt.Printf("--- standby telemetry (%s) ---\n%s\n", phase, snap.String())
		}
		p.QueryLogSink = func(phase string, recs []obs.QueryRecord) {
			if len(recs) == 0 {
				return
			}
			const show = 5
			fmt.Printf("--- recent query profiles (%s; last %d of %d recorded) ---\n",
				phase, min(show, len(recs)), len(recs))
			for _, r := range recs[:min(show, len(recs))] {
				slow := ""
				if r.Slow {
					slow = " SLOW"
				}
				fmt.Printf("  #%d %s path=%s rows=%d wall=%v%s\n",
					r.Seq, r.Table, r.Path, r.Rows, r.Wall().Round(time.Microsecond), slow)
				if p, ok := r.Profile.(*scanengine.Profile); ok {
					fmt.Printf("     units scan=%d pruned=%d fallback=%d batches=%d | imcs=%d invalid=%d tail=%d rowstore=%d | p=%d morsels=%d steals=%d\n",
						p.UnitsScanned, p.UnitsPruned, p.UnitsFallback, p.Batches,
						p.RowsIMCS, p.RowsInvalid, p.RowsTail, p.RowsRowStore,
						p.Parallel, p.Morsels, p.Steals)
				}
			}
			fmt.Println()
		}
	}

	type runner struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	all := []runner{
		{"fig9", func() (fmt.Stringer, error) { return experiments.RunFig9(p) }},
		{"fig10", func() (fmt.Stringer, error) { return experiments.RunFig10(p) }},
		{"table2", func() (fmt.Stringer, error) { return experiments.RunTable2(p) }},
		{"fig11", func() (fmt.Stringer, error) { return experiments.RunFig11(p) }},
		{"cpu", func() (fmt.Stringer, error) { return experiments.RunCPU(p) }},
		{"groupby", func() (fmt.Stringer, error) { return experiments.RunGroupBy(p) }},
		{"fleet", func() (fmt.Stringer, error) { return experiments.RunFleetOverload(p) }},
		{"morsel", func() (fmt.Stringer, error) { return experiments.RunMorsel(p) }},
	}

	selected := all[:0:0]
	for _, r := range all {
		if *exp == "all" || *exp == r.name {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	eff := p.WithDefaults()
	fmt.Printf("DBIM-on-ADG evaluation — rows=%d duration=%v target=%d ops/s threads=%d scans=%.0f/s\n\n",
		eff.Rows, eff.Duration, eff.TargetOps, eff.Threads, eff.ScanRate)
	for _, r := range selected {
		start := time.Now()
		fmt.Printf("=== %s ===\n", r.name)
		res, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Printf("(%s completed in %v)\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
}
