package main

import (
	"runtime"
	"sort"
)

// metric is one reported value. The JSON shape is the one the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd folds a run into the metrics a user of the system would see.
// Every workload reports all of them: each has a scan client, a paced OLTP
// stage and a catch-up stage, and differs in how long each runs and what runs
// beside it.
func (o *observed) endToEnd() metricSet {
	m := metricSet{}
	var setups []float64
	for _, s := range o.setups {
		setups = append(setups, s.Seconds())
	}
	m.put("setup_s", medianOf(setups), "s")
	m.put("apply_cvs_per_s", medianOf(o.cu.rates), "1/s")
	m.put("c2v_p50_ms", ms(o.oltp.c2v.sorted().quantile(0.5)), "ms")
	m.put("oltp_p90_ms", ms(o.oltp.lat.sorted().quantile(0.9)), "ms")
	m.put("scan_mix_p50_ms", ms(o.scans.mixP50()), "ms")
	m.put("mem_heap_mb", max(o.liveHeapMB, o.replayHeapMB), "MB")
	return m
}

// perLayer folds a traced run into the metrics of single layers. Prefixes
// are the module names under internal/.
func (o *observed) perLayer(spans []spanSummary) metricSet {
	m := metricSet{}
	ll, rl, cu, first, gen, oltp, sc := o.liveLayer, o.replayLayer, o.cu, o.first, o.gen, o.oltp, o.scans

	// txn / primary: the generator's own timing of each call.
	m.put("txn.commit_p50_us", us(spanP50(spans, "txn.commit")), "us")
	m.put("txn.dml_p50_us", us(spanP50(spans, "txn.dml")), "us")
	m.put("txn.fetch_p50_us", us(spanP50(spans, "txn.fetch")), "us")
	m.put("txn.retries", float64(o.retries), "count")
	m.put("txn.loggen_tps", ratio(float64(gen.committed), gen.span.Seconds()), "1/s")
	m.put("primary.redo_bytes_per_txn", ratio(float64(gen.redoBytes), float64(gen.committed)), "B")

	// redo: codec probe over the first OLTP records of the catch-up log.
	m.put("redo.encode_ns_per_rec", rl.encodeNSPerRec, "ns")
	m.put("redo.decode_ns_per_rec", rl.decodeNSPerRec, "ns")
	m.put("redo.decode_allocs_per_rec", rl.decodeAllocsPerRec, "count")
	m.put("redo.bytes_per_rec", rl.bytesPerRec, "B")

	// transport: the replay receiver's counters, and shipping alone.
	m.put("transport.records_received", float64(first.rcv.records), "count")
	m.put("transport.bytes_received", float64(first.rcv.bytes), "B")
	m.put("transport.frames_read", float64(first.rcv.frames), "count")
	m.put("transport.reconnects", float64(first.rcv.reconnects), "count")
	m.put("transport.corrupt_frames", float64(first.rcv.corrupt), "count")
	m.put("transport.ship_only_recs_per_s", rl.shipOnlyRecsPerS, "1/s")
	m.put("transport.ship_s", cu.shipSpan.Seconds(), "s")

	// standby: counter deltas over the timed part of the first replay (every
	// replay applies the same records), rates and tails over all of them.
	m.put("standby.cvs_applied", float64(first.cvs), "count")
	m.put("standby.records_applied", float64(first.recs), "count")
	m.put("standby.queryscn_advances", float64(first.advances), "count")
	m.put("standby.advance_hz", ratio(float64(cu.advances), cu.span.Seconds()), "1/s")
	m.put("standby.dispatch_gap_p99", cu.dispatchGap.sorted().quantile(0.99), "scn")
	m.put("standby.inproc_cvs_per_s", rl.inprocCVsPerS, "1/s")
	m.put("standby.allocs_per_cv", ratio(float64(cu.mallocs), float64(cu.cvs)), "count")
	m.put("standby.alloc_bytes_per_cv", ratio(float64(cu.allocBytes), float64(cu.cvs)), "B")
	m.put("standby.gc_cycles_per_replay", ratio(float64(cu.gcCycles), float64(len(cu.rates))), "count")
	m.put("standby.gc_pause_ms", ratio(ms(float64(cu.gcPauseNS)), float64(len(cu.rates))), "ms")
	m.put("standby.catchup_s", cu.span.Seconds(), "s")

	// The freshness tracer's own stage waterfall on the live deployment.
	stage := map[string]struct{ p50, p99 float64 }{}
	var stageSum float64
	for _, s := range ll.freshness.Stages {
		stage[s.Stage] = struct{ p50, p99 float64 }{s.P50, s.P99}
		stageSum += s.P50
	}
	m.put("standby.merge_p50_us", stage["merge"].p50*1e6, "us")
	m.put("standby.dispatch_p50_us", stage["dispatch"].p50*1e6, "us")
	m.put("standby.apply_p50_us", stage["apply"].p50*1e6, "us")
	m.put("standby.apply_p99_us", stage["apply"].p99*1e6, "us")
	m.put("standby.publish_p50_us", stage["publish"].p50*1e6, "us")
	m.put("core.mine_p50_us", stage["mine"].p50*1e6, "us")
	m.put("core.flush_p50_us", stage["flush"].p50*1e6, "us")
	m.put("core.flush_p99_us", stage["flush"].p99*1e6, "us")
	m.put("obs.c2v_p50_ms", ll.freshness.CommitToVisible.P50*1e3, "ms")
	m.put("obs.c2v_unattributed_pct", 100*(1-ratio(stageSum, ll.freshness.CommitToVisible.P50)), "%")

	// core: counter deltas over the catch-up, and probes on private instances.
	m.put("core.mined_records", float64(first.mined), "count")
	m.put("core.flushed_records", float64(first.flushed), "count")
	m.put("core.coarse_invalidations", float64(first.coarse), "count")
	m.put("core.journal_txns_p99", cu.journalTxns.sorted().quantile(0.99), "count")
	m.put("core.commit_table_pending_p99", cu.commitPend.sorted().quantile(0.99), "count")
	m.put("core.mine_ns_per_cv", rl.mineNSPerCV, "ns")
	m.put("core.mine_allocs_per_cv", rl.mineAllocsPerCV, "count")
	m.put("core.commit_insert_ns", rl.commitInsertNS, "ns")
	m.put("core.flush_ns_per_rec", rl.flushNSPerRec, "ns")

	// imcs: the live standby's column store at the end of its stages.
	m.put("imcs.units", float64(ll.store.Units), "count")
	m.put("imcs.rows", float64(ll.store.Rows), "count")
	m.put("imcs.invalid_rows_end", float64(ll.store.InvalidRows), "count")
	m.put("imcs.mem_mb", float64(ll.store.MemBytes)/(1<<20), "MB")
	m.put("imcs.bytes_per_row", ratio(float64(ll.store.MemBytes), float64(ll.store.Rows)), "B")
	m.put("imcs.units_populated", float64(ll.engine.UnitsPopulated), "count")
	m.put("imcs.units_repopulated", float64(ll.engine.UnitsRepopulated), "count")
	m.put("imcs.hit_ratio", sc.hitRatio(), "ratio")
	m.put("imcs.build_ms_per_unit", ll.buildNSPerUnit/1e6, "ms")
	m.put("imcs.aggmasked_ns_per_row", ll.aggNSPerRow, "ns")

	// scanengine: the reported scan client, by class and by serving path.
	q := float64(max(sc.queries(), 1))
	m.put("scanengine.qps", ratio(q, sc.span.Seconds()), "1/s")
	m.put("scanengine.q1_p50_ms", ms(sc.p50(classQ1)), "ms")
	m.put("scanengine.q2_p50_ms", ms(sc.p50(classQ2)), "ms")
	m.put("scanengine.agg_p50_ms", ms(sc.p50(classAgg)), "ms")
	m.put("scanengine.grp_p50_ms", ms(sc.p50(classGrp)), "ms")
	m.put("scanengine.p99_ms", ms(sc.lat.sorted().quantile(0.99)), "ms")
	m.put("scanengine.units_pruned_per_q", float64(sc.unitsPruned)/q, "count")
	m.put("scanengine.morsels_per_q", float64(sc.morsels)/q, "count")
	m.put("scanengine.steals_per_q", float64(sc.steals)/q, "count")
	m.put("scanengine.rows_invalid_per_q", float64(sc.rowsInvalid)/q, "count")
	m.put("scanengine.rows_tail_per_q", float64(sc.rowsTail)/q, "count")
	m.put("scanengine.rows_rowstore_per_q", float64(sc.rowsRowStore)/q, "count")
	m.put("scanengine.allocs_per_q", ll.allocsPerQ, "count")
	m.put("scanengine.kb_per_q", ll.kbPerQ, "KB")
	m.put("scanengine.serial_q1_p50_ms", ms(ll.serialQ1P50), "ms")
	m.put("scanengine.rowstore_q1_p50_ms", ms(ll.rowQ1P50), "ms")
	m.put("scanengine.imcs_speedup_q1", ratio(ll.rowQ1P50, ll.q1P50), "ratio")
	m.put("scanengine.run_p50_us", us(spanP50(spans, "scanengine.run")), "us")
	m.put("sqlmini.parse_compile_us", us(ll.parseCompileNS), "us")

	// The scan client beside the replays; zero where none runs.
	beside := cu.scans
	if beside == nil {
		beside = &scanStats{}
	}
	m.put("scanengine.beside_apply_mix_p50_ms", ms(beside.mixP50()), "ms")
	m.put("scanengine.beside_apply_q1_p50_ms", ms(beside.p50(classQ1)), "ms")
	m.put("scanengine.beside_apply_qps", ratio(float64(beside.queries()), beside.span.Seconds()), "1/s")
	m.put("imcs.beside_apply_hit_ratio", beside.hitRatio(), "ratio")

	// The generator's own validity.
	m.put("gen.c2v_p99_ms", ms(oltp.c2v.sorted().quantile(0.99)), "ms")
	m.put("gen.oltp_p99_ms", ms(oltp.lat.sorted().quantile(0.99)), "ms")
	m.put("gen.late_p99_ms", ms(oltp.late.sorted().quantile(0.99)), "ms")
	m.put("gen.c2v_matched_ratio", ratio(float64(len(oltp.c2v)), float64(oltp.c2vSampled)), "ratio")
	m.put("gen.ops_failed_ratio", ratio(float64(o.failed()), float64(o.attempted())), "ratio")
	m.put("gen.setup_live_s", o.liveSetup.Seconds(), "s")
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.put("gen.mem_sys_mb", float64(mem.Sys)/(1<<20), "MB")
	return m
}

// shares puts the probes' costs per change vector next to the measured
// ceiling, so that the gap between the parts and the whole is visible. Codec
// is single-threaded CPU time and is part of ship-only (the server encodes,
// the receiver decodes); ship-only and in-process replay are wall time of
// pipelines that run side by side in the real thing, so their sum exceeds the
// whole by as much as they overlap (on two cores: hardly at all).
func (o *observed) shares(applyCVsPerS float64) map[string]float64 {
	rl := o.replayLayer
	perCV := func(perS float64) float64 { return ratio(1e6, perS) }
	d := map[string]float64{
		"share.whole_us_per_cv":    perCV(applyCVsPerS),
		"share.codec_us_per_cv":    ratio((rl.encodeNSPerRec+rl.decodeNSPerRec)/1e3, rl.cvsPerRec),
		"share.ship_us_per_cv":     perCV(rl.shipOnlyRecsPerS * rl.cvsPerRec),
		"share.inproc_us_per_cv":   perCV(rl.inprocCVsPerS),
		"share.cvs_per_rec":        rl.cvsPerRec,
		"share.probe_codec_recs":   float64(rl.codecRecords),
		"share.probe_ship_recs":    float64(rl.shipOnlyRecords),
		"share.probe_inproc_cvs":   float64(rl.inprocCVs),
		"share.probe_mined_cvs":    float64(rl.minedCVs),
		"share.probe_flushed_recs": float64(rl.probeFlushed),
	}
	d["share.sum_minus_whole_us_per_cv"] = d["share.ship_us_per_cv"] + d["share.inproc_us_per_cv"] - d["share.whole_us_per_cv"]
	return d
}

// headlineOf names the end-to-end metric whose traced and untraced values
// give a workload's tracing overhead.
var headlineOf = map[string]string{
	"scan_static":    "scan_mix_p50_ms",
	"redo_catchup":   "apply_cvs_per_s",
	"htap_paced":     "c2v_p50_ms",
	"htap_saturated": "apply_cvs_per_s",
}

// traceOverheadPct is by how much the traced run's headline is worse than the
// untraced run's, in percent of the latter.
func traceOverheadPct(workload string, untraced, traced metricSet) float64 {
	name := headlineOf[workload]
	base, v := untraced[name].Value, traced[name].Value
	if name == "apply_cvs_per_s" { // higher is better
		return 100 * ratio(base-v, base)
	}
	return 100 * ratio(v-base, base)
}
