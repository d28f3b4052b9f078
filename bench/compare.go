package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json, the declaration the driver checks runs
// against, that the comparison and the smoke test read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the working
// directory is the root or the benchmark's own directory.
func loadSpec() (*spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns (the
// exclusive method), which is what the driver computes spreads from.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares two sides of one workload and metric: unresolved when either
// side's spread is wider than the bound, regressed when b's median is worse
// than a's by more than the bound. As the driver does, it holds setup_s to the
// second rule only: a run sets a standby up a few times, not thousands.
func judge(d metricDecl, a, b []float64) verdict {
	if d.Name != "setup_s" && (spread(a) > d.Bound || spread(b) > d.Bound) {
		return verdictUnresolved
	}
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse := ratio(mb-ma, ma)
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return verdictRegressed
	}
	return verdictOK
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric's untraced values for one workload.
func (s *resultSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareSets prints one row per workload and end-to-end metric and returns
// how many regressed and how many could not be resolved.
func compareSets(sp *spec, a, b *resultSet) (regressed, unresolved int) {
	fmt.Printf("%-15s %-16s %5s  %-38s %-38s %s\n", "workload", "metric", "bound", "a: median [q1, q3] n", "b: median [q1, q3] n", "verdict")
	for _, w := range sp.Workloads {
		for _, d := range sp.EndToEnd {
			va, vb := a.values(w.Name, d.Name), b.values(w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(d, va, vb)
			switch v {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			side := func(vals []float64) string {
				q1, q2, q3 := quartiles(vals)
				return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q2, q1, q3, len(vals))
			}
			fmt.Printf("%-15s %-16s %5.2f  %-38s %-38s %s\n", w.Name, d.Name, d.Bound, side(va), side(vb), v)
		}
	}
	return regressed, unresolved
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("--compare takes two result sets: a.json b.json")
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readSet(args[0])
	if err != nil {
		return err
	}
	b, err := readSet(args[1])
	if err != nil {
		return err
	}
	if a.Rows != b.Rows || a.Seconds != b.Seconds {
		return fmt.Errorf("the sets are not comparable: %d rows for %g s against %d rows for %g s", a.Rows, a.Seconds, b.Rows, b.Seconds)
	}
	regressed, unresolved := compareSets(sp, a, b)
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end metrics regressed", regressed)
	}
	return nil
}
