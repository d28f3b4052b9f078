package main

import (
	"math"
	"slices"
	"time"
)

// samples is a set of latency observations in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// sorted returns an ascending copy.
func (s samples) sorted() samples {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

// quantile is the nearest-rank quantile of an ascending sample set, in
// nanoseconds; 0 when the set is empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = min(max(rank, 0), len(s)-1)
	return float64(s[rank])
}

// ms and us convert a nanosecond quantity to milliseconds / microseconds.
func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

func medianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	v := slices.Clone(vals)
	slices.Sort(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}
