package obs

import (
	"sync/atomic"
	"time"
)

// Progress is a cheap liveness heartbeat for one pipeline stage: a monotonic
// advance count plus the wall time of the last advance. Hot paths call Tick
// (two uncontended atomic stores, ~a few ns); the Watchdog polls Count/LastNanos
// to decide whether the stage is moving. All methods are nil-safe so
// components can carry an optional heartbeat.
type Progress struct {
	count atomic.Int64
	last  atomic.Int64 // unix nanos of the most recent Tick
}

// Tick records one unit of stage progress.
func (p *Progress) Tick() {
	if p == nil {
		return
	}
	p.count.Add(1)
	p.last.Store(time.Now().UnixNano())
}

// TickN records n units of stage progress in one beat.
func (p *Progress) TickN(n int64) {
	if p == nil {
		return
	}
	p.count.Add(n)
	p.last.Store(time.Now().UnixNano())
}

// Count returns the cumulative advance count.
func (p *Progress) Count() int64 {
	if p == nil {
		return 0
	}
	return p.count.Load()
}

// LastNanos returns the unix-nano timestamp of the last advance (0 if the
// stage has never advanced).
func (p *Progress) LastNanos() int64 {
	if p == nil {
		return 0
	}
	return p.last.Load()
}
