package transport

import (
	"math/rand"
	"sync"
	"time"
)

// FaultKind enumerates the transport-level faults the injector can apply to a
// single outgoing redo frame. They generalize the Server.DropConnections hook
// (a whole-partition fault) down to per-frame granularity.
type FaultKind int

const (
	// FaultNone ships the frame untouched.
	FaultNone FaultKind = iota
	// FaultDrop severs the connection before the frame is sent. The receiver
	// redials and resumes at LastSCN+1, so the record is re-served from the
	// archived log.
	FaultDrop
	// FaultPartial writes a strict prefix of the frame, then severs the
	// connection — the mid-record drop. The receiver sees a truncated read.
	FaultPartial
	// FaultDelay sleeps up to Plan.MaxDelay before sending, stretching the
	// apply lag without losing anything.
	FaultDelay
	// FaultDup sends the frame twice back to back. The receiver must
	// deduplicate by SCN.
	FaultDup
	// FaultReorder holds the frame back and ships it after the next one — an
	// adjacent swap. Only sound against a receiver with ReorderWindow >= 2;
	// the injector never reorders across an end-of-log or a drop (held frames
	// are re-served from the log after a reconnect).
	FaultReorder
	// FaultCorrupt flips one bit in the frame body. The receiver's CRC check
	// rejects the frame and refetches it from the archived log by redialling.
	FaultCorrupt
)

// String names the fault for counters and logs.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultPartial:
		return "partial"
	case FaultDelay:
		return "delay"
	case FaultDup:
		return "dup"
	case FaultReorder:
		return "reorder"
	case FaultCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// FaultPlan sets the per-frame probability of each fault. Probabilities are
// evaluated in order (drop, partial, delay, dup, reorder, corrupt); the first
// hit wins, so the sum should stay well below 1 to keep redo flowing.
type FaultPlan struct {
	DropProb    float64
	PartialProb float64
	DelayProb   float64
	DupProb     float64
	ReorderProb float64
	CorruptProb float64
	// MaxDelay bounds the FaultDelay sleep (default 2ms when unset).
	MaxDelay time.Duration
}

// FaultInjector decides, frame by frame, which fault the Server applies to an
// outgoing redo frame. It is seeded for reproducibility: the same seed and
// plan yield the same fault sequence per decision index. A scripted mode
// (Script) overrides the probabilistic plan for targeted tests — the k-th
// shipped frame gets Script[k], and frames past the end of the script ship
// clean.
type FaultInjector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	plan   FaultPlan
	script []FaultKind
	tail   FaultKind // fault applied to every frame past the script's end
	next   int
	counts [FaultCorrupt + 1]int64
}

// NewFaultInjector builds a probabilistic injector from a seed and plan.
func NewFaultInjector(seed int64, plan FaultPlan) *FaultInjector {
	if plan.MaxDelay <= 0 {
		plan.MaxDelay = 2 * time.Millisecond
	}
	return &FaultInjector{rng: rand.New(rand.NewSource(seed)), plan: plan}
}

// NewScriptedInjector builds an injector that replays exactly the given fault
// sequence, one entry per shipped frame, then ships clean (or applies the
// SetScriptTail fault, if one is set).
func NewScriptedInjector(script ...FaultKind) *FaultInjector {
	fi := NewFaultInjector(1, FaultPlan{}) // for MaxDelay's default: a scripted delay draws from it
	fi.script = append([]FaultKind(nil), script...)
	return fi
}

// SetScriptTail sets the fault applied to every frame after the script is
// exhausted (default FaultNone: ship clean). A FaultDrop tail models a
// permanent outage — every subsequent frame severs the connection, so no redo
// is ever delivered again no matter how often the receiver redials. Targeted
// liveness tests use this to wedge the pipeline on purpose.
func (f *FaultInjector) SetScriptTail(kind FaultKind) {
	f.mu.Lock()
	f.tail = kind
	f.mu.Unlock()
}

// decision is one injector verdict for a frame.
type decision struct {
	kind  FaultKind
	delay time.Duration // for FaultDelay
	cut   float64       // for FaultPartial: fraction of the frame to send, (0,1)
	bit   uint64        // for FaultCorrupt: pseudo-random bit selector
}

// nextDecision samples the fault for the next outgoing frame.
func (f *FaultInjector) nextDecision() decision {
	f.mu.Lock()
	defer f.mu.Unlock()
	var d decision
	if f.script != nil || f.tail != FaultNone {
		if f.next < len(f.script) {
			d.kind = f.script[f.next]
		} else {
			d.kind = f.tail
		}
		f.next++
	} else {
		p := f.rng.Float64()
		switch {
		case p < f.plan.DropProb:
			d.kind = FaultDrop
		case p < f.plan.DropProb+f.plan.PartialProb:
			d.kind = FaultPartial
		case p < f.plan.DropProb+f.plan.PartialProb+f.plan.DelayProb:
			d.kind = FaultDelay
		case p < f.plan.DropProb+f.plan.PartialProb+f.plan.DelayProb+f.plan.DupProb:
			d.kind = FaultDup
		case p < f.plan.DropProb+f.plan.PartialProb+f.plan.DelayProb+f.plan.DupProb+f.plan.ReorderProb:
			d.kind = FaultReorder
		case p < f.plan.DropProb+f.plan.PartialProb+f.plan.DelayProb+f.plan.DupProb+f.plan.ReorderProb+f.plan.CorruptProb:
			d.kind = FaultCorrupt
		}
	}
	switch d.kind {
	case FaultDelay:
		d.delay = time.Duration(f.rng.Int63n(int64(f.plan.MaxDelay)) + 1)
	case FaultPartial:
		d.cut = 0.1 + 0.8*f.rng.Float64()
	case FaultCorrupt:
		d.bit = f.rng.Uint64()
	}
	f.counts[d.kind]++
	return d
}

// Counts returns how many times each fault kind has been injected, keyed by
// FaultKind.String(). "none" counts clean frames.
func (f *FaultInjector) Counts() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, len(f.counts))
	for k, n := range f.counts {
		if n > 0 {
			out[FaultKind(k).String()] = n
		}
	}
	return out
}

// Injected returns the total number of injected faults (everything but
// FaultNone).
func (f *FaultInjector) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for k, c := range f.counts {
		if FaultKind(k) != FaultNone {
			n += c
		}
	}
	return n
}
