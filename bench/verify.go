package main

import (
	"fmt"

	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
)

// queryAt runs one statement of the mix at a fixed snapshot on one side.
type queryAt func(sql string, b binds) (*scanengine.Result, error)

// referenceDigests runs every (class, bind) of the run's inputs once through
// pure, a row-store-only executor, and returns the digests the static gate
// compares each column-store result against.
func referenceDigests(pure queryAt, in *scanInputs) (map[[2]int]uint64, error) {
	ref := make(map[[2]int]uint64)
	for class := range in {
		for bi, b := range in[class] {
			res, err := pure(classSQL[class], b)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", classNames[class], err)
			}
			ref[[2]int{class, bi}] = digestResult(res)
		}
	}
	return ref, nil
}

// checkDigests counts results whose digest differs from the reference.
func checkDigests(ref map[[2]int]uint64, got []queryDigest) (mismatches int64) {
	for _, d := range got {
		if ref[[2]int{d.class, d.bind}] != d.digest {
			mismatches++
		}
	}
	return mismatches
}

// threeWay asserts the system's contract on one query per class: the hybrid
// column-store scan, the standby's pure row-store scan and the primary's
// consistent read, all at the same QuerySCN, return the same result.
func threeWay(hybrid, pure, primary queryAt, in *scanInputs) error {
	for class := range in {
		b := in[class][0]
		var d [3]uint64
		for i, side := range []queryAt{hybrid, pure, primary} {
			res, err := side(classSQL[class], b)
			if err != nil {
				return fmt.Errorf("three-way %s side %d: %w", classNames[class], i, err)
			}
			d[i] = digestResult(res)
		}
		if d[0] != d[1] || d[1] != d[2] {
			return fmt.Errorf("three-way %s: hybrid %x, row store %x, primary %x", classNames[class], d[0], d[1], d[2])
		}
	}
	return nil
}

// scnWatch asserts that the QuerySCNs one goroutine reads never go back.
type scnWatch struct {
	last       scn.SCN
	violations int64
}

func (w *scnWatch) observe(q scn.SCN) {
	if q < w.last {
		w.violations++
		return
	}
	w.last = q
}
