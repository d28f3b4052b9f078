package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// suiteRun is one child process's result line, tagged with what was run.
type suiteRun struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// resultSet is what a suite run writes and --compare reads.
type resultSet struct {
	Commit     string     `json:"commit"`
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NProc      int        `json:"nproc"`
	Seconds    float64    `json:"seconds"`
	Rows       int        `json:"rows"`
	Runs       []suiteRun `json:"runs"`
}

// exactRepeat lists the traced redo_catchup counts that depend on the seed
// alone. The suite runs that workload twice on one seed and requires them
// identical; a later change may claim on them as counts.
var exactRepeat = []string{
	"standby.cvs_applied", "standby.records_applied", "core.mined_records",
	"core.flushed_records", "transport.records_received", "redo.bytes_per_rec",
}

// runChild runs one workload in a child process of this same binary, passes
// its output through, and parses the last line.
func runChild(workload string, seed int64, seconds float64, traced bool) (*suiteRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
	var outBuf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &outBuf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&outBuf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	run := &suiteRun{Workload: workload, Seed: seed, Traced: traced}
	if err := json.Unmarshal([]byte(last), run); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return run, nil
}

func suiteMain(seed int64, seconds float64, traced bool, runs int, out string) error {
	set := &resultSet{
		Commit: commitOf(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Seconds: seconds, Rows: defaultRows,
	}
	for k := 0; k < runs; k++ {
		for _, w := range workloadNames {
			s := seed + int64(k)
			modes := []bool{false}
			if traced {
				modes = append(modes, true)
			}
			for _, tr := range modes {
				fmt.Printf("== %s seed %d trace %v\n", w, s, tr)
				run, err := runChild(w, s, seconds, tr)
				if err != nil {
					return err
				}
				set.Runs = append(set.Runs, *run)
			}
			if traced && w == "redo_catchup" && k == 0 {
				fmt.Printf("== %s seed %d trace true (exact-repeat check)\n", w, s)
				again, err := runChild(w, s, seconds, true)
				if err != nil {
					return err
				}
				first := set.Runs[len(set.Runs)-1]
				for _, name := range exactRepeat {
					if a, b := first.Metrics[name].Value, again.Metrics[name].Value; a != b {
						return fmt.Errorf("exact-repeat: %s was %v then %v on the same seed", name, a, b)
					}
				}
				fmt.Println("exact-repeat counts identical:", exactRepeat)
			}
		}
	}
	if out == "" {
		out = filepath.Join(defaultOutDir(), "results.json")
	}
	if err := writeJSON(out, set); err != nil {
		return err
	}
	fmt.Println("result set written to", out)
	return nil
}
