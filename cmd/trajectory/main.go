// Command trajectory chains the end-to-end benchmark's same-session ratios
// from the seed (bench/baseline.json) to HEAD, since sessions drift by tens of
// percent. A link is two committed BENCH_*.json result sets on the same seeds,
// or a pair transcribed in trajectory_links.json. Run it from the repository
// root with the whole history: go run ./cmd/trajectory
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// side holds a committed set's untraced values in seed and run order, or one
// transcribed median, by "workload metric".
type side map[string][]float64

type resultSet struct {
	Commit string
	Runs   []struct {
		Workload string
		Seed     int64
		Traced   bool
		Metrics  map[string]struct{ Value float64 }
	}
}

// side returns the set's untraced values and the runs' seeds.
func (s *resultSet) side() (side, string) {
	out, seeds := side{}, []string{}
	key := func(i int) string { return fmt.Sprint(s.Runs[i].Workload, s.Runs[i].Seed) }
	sort.SliceStable(s.Runs, func(i, j int) bool { return key(i) < key(j) })
	for i, r := range s.Runs {
		if r.Traced {
			continue
		}
		for m, v := range r.Metrics {
			out[r.Workload+" "+m] = append(out[r.Workload+" "+m], v.Value)
		}
		seeds = append(seeds, key(i))
	}
	return out, strings.Join(seeds, " ")
}

// link is one session's pairs: the parent's side A and the change's side B.
// The first link is the seed's medians, a change side alone.
type link struct {
	Parent, Change string
	Transcribed    bool
	A, B           side
}

type decl struct {
	Name, Better string
	Bound        float64
}

type trajectory struct {
	spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
	}
	Links     []*link // in first-parent order once loaded
	uncovered []string
}

// short is a commit's seven-character abbreviation, which the record uses.
func short(sha string) string { return sha[:min(len(sha), 7)] }

// load reads the record under root and orders its links along history, the
// first-parent commits oldest first ("sha subject"). A link covers its change
// and the commits between it and its parent, the earlier of its two sets.
func load(root string, history []string) (*trajectory, error) {
	t := &trajectory{}
	var base struct {
		EndToEnd []struct {
			Commit    string
			Workloads map[string]map[string]struct{ Median float64 }
		} `json:"end_to_end"`
	}
	paths, _ := filepath.Glob(filepath.Join(root, "BENCH_*.json")) // the pattern is well-formed
	sets := make([]resultSet, len(paths))
	files := map[string]any{"BENCHMARK.json": &t.spec, "bench/baseline.json": &base, "trajectory_links.json": t}
	for i, p := range paths {
		files[filepath.Base(p)] = &sets[i]
	}
	for name, v := range files {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err == nil {
			err = json.Unmarshal(data, v)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	seed := &link{Change: short(base.EndToEnd[0].Commit), B: side{}}
	for w, ms := range base.EndToEnd[0].Workloads {
		for m, v := range ms {
			seed.B[w+" "+m] = []float64{v.Median}
		}
	}
	pos, covered := map[string]int{}, make([]bool, len(history)+1)
	for i, h := range history {
		pos[short(h)] = i + 1 // 0: not on the history
	}
	sides, seeds := make([]side, len(sets)), make([]string, len(sets))
	for i := range sets {
		sides[i], seeds[i] = sets[i].side()
		for _, l := range t.Links {
			if l.Transcribed && short(sets[i].Commit) == l.Change {
				l.B = sides[i]
			}
		}
		for j := 0; j < i; j++ {
			if p, c := j, i; seeds[p] == seeds[c] {
				if pos[short(sets[c].Commit)] < pos[short(sets[p].Commit)] {
					p, c = c, p
				}
				t.Links = append(t.Links, &link{Parent: short(sets[p].Commit), Change: short(sets[c].Commit), A: sides[p], B: sides[c]})
			}
		}
	}
	start := pos[seed.Change]
	if start == 0 {
		return nil, fmt.Errorf("the seed commit is not on the first-parent history (a shallow clone?)")
	}
	for _, l := range t.Links {
		p, c := pos[l.Parent], pos[l.Change]
		if p < start || c <= p {
			return nil, fmt.Errorf("link %s..%s does not follow the first-parent history from the seed", l.Parent, l.Change)
		}
		for i := p + 1; i <= c; i++ {
			covered[i] = true
		}
	}
	sort.SliceStable(t.Links, func(i, j int) bool { return pos[t.Links[i].Change] < pos[t.Links[j].Change] })
	t.Links = append([]*link{seed}, t.Links...)
	for i := start + 1; i <= len(history); i++ {
		if !covered[i] {
			t.uncovered = append(t.uncovered, history[i-1])
		}
	}
	return t, nil
}

// read is the quartiles of the link's ratio B/A for metric d of k, pair by
// pair (by seed and run order, which cancels the drift a ratio of medians
// brings back), and their verdict: "unresolved" wider apart than the bound,
// else "no change" when they straddle 1, "regressed" worse than the bound.
func (l *link) read(d decl, k string) (r [3]float64, verdict string) {
	a, b := l.A[k], l.B[k]
	if len(a) != len(b) { // a transcribed median against a committed set
		a, b = []float64{median(a)}, []float64{median(b)}
	}
	ratios := make([]float64, len(a))
	for i := range a {
		ratios[i] = b[i] / a[i]
	}
	r = quartiles(ratios)
	worse := r[1] - 1
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case r[2]-r[0] > d.Bound:
		return r, "unresolved"
	case r[0] < 1 && r[2] > 1:
		return r, "no change"
	case worse > d.Bound:
		return r, "regressed"
	}
	return r, "ok"
}

// num rounds to four significant digits and prints no exponent.
func num(x float64) string {
	r, _ := strconv.ParseFloat(fmt.Sprintf("%.4g", x), 64)
	return strconv.FormatFloat(r, 'f', -1, 64)
}

func show(v []float64) string {
	if q := quartiles(v); len(v) > 1 {
		return fmt.Sprintf("%s [%s, %s] n=%d", num(q[1]), num(q[0]), num(q[2]), len(v))
	}
	return num(median(v))
}

func (t *trajectory) report(w io.Writer) {
	fmt.Fprintf(w, "%d links from the seed to HEAD; (t): medians transcribed from EXPERIMENTS.md\n", len(t.Links)-1)
	total := "| workload | metric | seed | product | seed × product | links |\n|---|---|---|---|---|---|\n"
	for _, wl := range t.spec.Workloads {
		for _, d := range t.spec.EndToEnd {
			k, prod, n := wl.Name+" "+d.Name, 1.0, 0
			fmt.Fprintf(w, "\n%s (%s is better, bound %.2f)\n", k, d.Better, d.Bound)
			for _, l := range t.Links[1:] {
				a, b := l.A[k], l.B[k]
				name := l.Parent + ".." + l.Change + map[bool]string{true: " (t)"}[l.Transcribed]
				if len(a) == 0 || len(b) == 0 {
					fmt.Fprintf(w, "  %-20s not measured\n", name)
					continue
				}
				r, verdict := l.read(d, k)
				prod, n = prod*r[1], n+1
				fmt.Fprintf(w, "  %-20s %-30s %-30s ×%.3f [%.3f, %.3f]  %s\n", name, show(a), show(b), r[1], r[0], r[2], verdict)
			}
			seed := median(t.Links[0].B[k])
			total += fmt.Sprintf("| `%s` | `%s` | %s | ×%.3f | %s | %d/%d |\n", wl.Name, d.Name, num(seed), prod, num(seed*prod), n, len(t.Links)-1)
		}
	}
	fmt.Fprintf(w, "\nThe seed's median times the product of the links' ratios:\n\n%s\n%d first-parent commits after the seed no link covers:\n", total, len(t.uncovered))
	fmt.Fprintf(w, "  %s\n", strings.Join(t.uncovered, "\n  "))
}

// quartiles is bench --compare's: Python's statistics.quantiles(v, n=4), the
// exclusive method; a single value is its own quartiles.
func quartiles(v []float64) (q [3]float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 0; i < 3; i++ {
		n, m := i+1, len(s)+1
		j := min(max(n*m/4, 1), len(s)-1)
		delta := float64(n*m - j*4)
		q[i] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func median(v []float64) float64 { return quartiles(v)[1] }

func main() {
	out, err := exec.Command("git", "log", "--first-parent", "--reverse", "--format=%h %s", "--abbrev=7", "HEAD").Output()
	t, lerr := load(".", strings.Split(strings.TrimSpace(string(out)), "\n"))
	if err = errors.Join(err, lerr); err != nil {
		fmt.Fprintln(os.Stderr, "trajectory:", err)
		os.Exit(1)
	}
	t.report(os.Stdout)
}
