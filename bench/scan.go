package main

import (
	"fmt"
	"math/rand"
	"time"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/sqlmini"
	"dbimadg/internal/workload"
)

// The analytic mix: the paper's Table 1 queries, one filtered multi-aggregate
// and one GROUP BY, issued round-robin by a single closed-loop client.
const (
	classQ1 = iota
	classQ2
	classAgg
	classGrp
	numClasses
)

var classNames = [numClasses]string{"q1", "q2", "agg", "grp"}

var classSQL = [numClasses]string{
	"SELECT * FROM C101 WHERE n1 = :v",
	"SELECT * FROM C101 WHERE c1 = :v",
	"SELECT COUNT(*), SUM(n2), MIN(n3), MAX(n3) FROM C101 WHERE n1 < :v",
	"SELECT c1, COUNT(*), SUM(n1) FROM C101 GROUP BY c1",
}

// bindsPerClass bounds the distinct binds a run issues, so that the static
// correctness gate needs one row-store reference scan per (class, bind).
const bindsPerClass = 8

type binds = map[string]sqlmini.Bind

// strVals interns the varchar domain FillRow draws from.
var strVals = func() []string {
	out := make([]string, workload.StrDomain)
	for k := range out {
		out[k] = fmt.Sprintf("val_%04d", k)
	}
	return out
}()

func strVal(k int64) string { return strVals[k] }

// scanInputs are the seed-drawn bind values of one run.
type scanInputs [numClasses][]binds

func drawScanInputs(seed int64) *scanInputs {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca9))
	var in scanInputs
	for i := 0; i < bindsPerClass; i++ {
		in[classQ1] = append(in[classQ1], binds{"v": sqlmini.NumBind(rng.Int63n(workload.NumDomain))})
		in[classQ2] = append(in[classQ2], binds{"v": sqlmini.StrBind(strVal(rng.Int63n(workload.StrDomain)))})
		// One bind per eighth of the domain, so that every seed's AGG binds
		// have the same mean selectivity; v >= 1 always matches rows, so
		// MIN/MAX are defined.
		const stratum = workload.NumDomain / bindsPerClass
		in[classAgg] = append(in[classAgg], binds{"v": sqlmini.NumBind(1 + int64(i)*stratum + rng.Int63n(stratum-1))})
	}
	in[classGrp] = []binds{nil}
	return &in
}

// scanBackend is how a scan client reaches the standby: through the root
// API's standby session on the live deployment, or through a bare executor on
// the replay harness. The traced run times parse, compile and execution apart
// and takes the profile; the untraced run makes the one call a user makes.
type scanBackend struct {
	table    *rowstore.Table
	query    func(sql string, b binds) (*scanengine.Result, error)
	profiled func(q *scanengine.Query) (*scanengine.Result, *scanengine.Profile, error)
}

// scanStats is what one scan client observed.
type scanStats struct {
	span    time.Duration // how long the client was issuing queries
	lat     samples
	byClass [numClasses]samples
	failed  int64
	// Serving-path counters summed from each Result.
	rowsIMCS, rowsInvalid, rowsTail, rowsRowStore int64
	unitsPruned, morsels, steals                  int64
	// digests holds (class, bind index, result digest) when the client was
	// asked to keep them for the static correctness gate.
	digests []queryDigest
}

type queryDigest struct {
	class, bind int
	digest      uint64
}

func (s *scanStats) queries() int64 { return int64(len(s.lat)) }

// merge adds another client's observations (the clients beside successive
// replays are reported as one).
func (s *scanStats) merge(o *scanStats) {
	s.span += o.span
	s.lat = append(s.lat, o.lat...)
	for class := range s.byClass {
		s.byClass[class] = append(s.byClass[class], o.byClass[class]...)
	}
	s.failed += o.failed
	s.rowsIMCS += o.rowsIMCS
	s.rowsInvalid += o.rowsInvalid
	s.rowsTail += o.rowsTail
	s.rowsRowStore += o.rowsRowStore
	s.unitsPruned += o.unitsPruned
	s.morsels += o.morsels
	s.steals += o.steals
}

// mixP50 is the typical time for one round of the mix: the sum of the four
// classes' median latencies, in nanoseconds.
func (s *scanStats) mixP50() float64 {
	var sum float64
	for class := range s.byClass {
		sum += s.p50(class)
	}
	return sum
}

// p50 is one class's median latency, in nanoseconds.
func (s *scanStats) p50(class int) float64 { return s.byClass[class].sorted().quantile(0.5) }

// hitRatio is the share of served rows that came from the column store.
func (s *scanStats) hitRatio() float64 {
	return ratio(float64(s.rowsIMCS), float64(s.rowsIMCS+s.rowsInvalid+s.rowsTail+s.rowsRowStore))
}

// runScans issues the mix in a closed loop until stop is closed.
// keepDigests records each result's digest.
func runScans(be *scanBackend, in *scanInputs, stop <-chan struct{}, tb *spanBuf, keepDigests bool) *scanStats {
	st := &scanStats{}
	start := time.Now()
	for issued := 0; ; {
		select {
		case <-stop:
			st.span = time.Since(start)
			return st
		default:
		}
		class := issued % numClasses
		bi := (issued / numClasses) % len(in[class])
		issued++
		t0 := time.Now()
		res, err := be.run(class, in[class][bi], tb)
		t1 := time.Now()
		if err != nil {
			st.failed++
			continue
		}
		d := t1.Sub(t0)
		st.lat.add(d)
		st.byClass[class].add(d)
		st.rowsIMCS += res.FromIMCS
		st.rowsInvalid += res.FromInvalid
		st.rowsTail += res.FromTail
		st.rowsRowStore += res.FromRowStore - res.FromInvalid - res.FromTail
		st.unitsPruned += res.UnitsPruned
		st.morsels += res.Morsels
		st.steals += res.Steals
		if keepDigests {
			st.digests = append(st.digests, queryDigest{class, bi, digestResult(res)})
		}
	}
}

func (be *scanBackend) run(class int, b binds, tb *spanBuf) (*scanengine.Result, error) {
	if tb == nil {
		return be.query(classSQL[class], b)
	}
	op := tb.op()
	root := tb.start("query", -1, op)
	tb.attr(root, "class", int64(class))
	sp := tb.start("sqlmini.parse", root, op)
	stmt, err := sqlmini.Parse(classSQL[class])
	tb.end(sp)
	if err != nil {
		tb.end(root)
		return nil, err
	}
	sp = tb.start("sqlmini.compile", root, op)
	q, err := stmt.Compile(be.table, b)
	tb.end(sp)
	if err != nil {
		tb.end(root)
		return nil, err
	}
	sp = tb.start("scanengine.run", root, op)
	res, prof, err := be.profiled(q)
	tb.end(sp)
	if err == nil {
		tb.attr(sp, "rows_imcs", prof.RowsIMCS)
		tb.attr(sp, "rows_invalid", prof.RowsInvalid)
		tb.attr(sp, "rows_tail", prof.RowsTail)
		tb.attr(sp, "rows_rowstore", prof.RowsRowStore)
		tb.attr(sp, "morsels", prof.Morsels)
		tb.attr(sp, "steals", prof.Steals)
	}
	tb.end(root)
	return res, err
}

// digestResult folds a result into 64 bits: materialized rows as an
// order-independent sum of per-row hashes (scan order is unspecified),
// aggregates and groups in their deterministic order.
func digestResult(res *scanengine.Result) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * prime }
	mix(uint64(res.Count))
	for _, v := range res.AggVals {
		mix(uint64(v))
	}
	var rowSum uint64
	for _, r := range res.Rows {
		rh := uint64(14695981039346656037)
		for _, v := range r.Nums {
			rh = (rh ^ uint64(v)) * prime
		}
		for _, s := range r.Strs {
			for i := 0; i < len(s); i++ {
				rh = (rh ^ uint64(s[i])) * prime
			}
			rh = (rh ^ 0xff) * prime
		}
		rowSum += rh
	}
	mix(uint64(len(res.Rows)))
	mix(rowSum)
	if g := res.Grouped; g != nil {
		for _, grp := range g.Groups {
			for _, k := range grp.Keys {
				mix(uint64(k.Num))
				for i := 0; i < len(k.Str); i++ {
					mix(uint64(k.Str[i]))
				}
			}
			for _, v := range grp.Vals {
				mix(uint64(v))
			}
			mix(uint64(grp.Count))
		}
	}
	return h
}
