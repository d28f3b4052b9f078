// Package broker implements a Data-Guard-Broker-style role manager for one
// primary/standby pair: failover (the primary is lost; the standby finishes
// recovery and opens read-write) and switchover (a planned role swap that
// additionally rebuilds the old primary as the new standby).
//
// The headline property is a WARM promotion (paper §I: "the standby database
// is a superset of the primary in terms of capabilities ... and can quickly
// switch roles"): the standby's In-Memory Column Store is retained across the
// transition — IMCUs populated while the node was a standby, SMU
// invalidations and all, keep serving analytics on the promoted primary with
// no repopulation. Only terminal recovery (draining shipped redo to its end
// and publishing one final QuerySCN) stands between failure and open.
package broker

import (
	"fmt"
	"sync"
	"time"

	"dbimadg/internal/fleet"
	"dbimadg/internal/obs"
	"dbimadg/internal/primary"
	"dbimadg/internal/redo"
	"dbimadg/internal/scn"
	"dbimadg/internal/service"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
)

// State is the broker's view of the configuration.
type State int

const (
	// StateSteady: the primary ships redo, the standby applies.
	StateSteady State = iota
	// StateFailedOver: the standby was promoted; the old primary is gone.
	StateFailedOver
	// StateSwitchedOver: roles were swapped; the old primary is the new
	// standby, fed from the promoted node.
	StateSwitchedOver
)

// String returns the state's name.
func (s State) String() string {
	switch s {
	case StateSteady:
		return "steady"
	case StateFailedOver:
		return "failed-over"
	case StateSwitchedOver:
		return "switched-over"
	default:
		return "unknown"
	}
}

// Config wires a broker over a running deployment.
type Config struct {
	// Primary is the current primary cluster. May be nil for a failover whose
	// primary already died (the broker then only tears down the transport).
	Primary *primary.Cluster
	// Standby is the standby to promote: the manager of its readers, holding
	// the apply master. A promotion shuts the readers down (the promoted node
	// serves all block ranges itself); a switchover rebinds the manager to the
	// rebuilt standby, which re-provisions the home-share readers
	// StandbyConfig.HomeInstances calls for and the declared full-copy ones.
	Standby *fleet.Manager
	// Source is the standby's redo source; the broker closes it during
	// terminal recovery. For the TCP transport this stops the reconnecting
	// receiver; the records it already mirrored are the archived logs terminal
	// recovery drains (gap resolution).
	Source transport.Source
	// Server is the primary-side TCP shipping server, when the deployment uses
	// one; closed during the transition.
	Server *transport.Server
	// PromotedInstances is the RAC instance count of the promoted primary
	// (default 1).
	PromotedInstances int
	// DrainTimeout bounds terminal recovery: how long to wait for end-of-redo
	// and worker drain (default 5s).
	DrainTimeout time.Duration
	// StandbyConfig configures the standby rebuilt by a switchover; zero
	// values take the standby package defaults.
	StandbyConfig standby.Config
}

// FailoverResult describes a completed promotion.
type FailoverResult struct {
	// PromotedSCN is the final QuerySCN established by terminal recovery — the
	// consistency point the promoted primary opened at.
	PromotedSCN scn.SCN
	// RolledBackTxns counts in-flight transactions (begun on the old primary,
	// never committed) rolled back at promotion.
	RolledBackTxns int
	// WarmUnits is the number of populated IMCUs retained across the
	// transition — the measure of how warm the promotion was.
	WarmUnits int
	// Elapsed is the wall time from invocation to open.
	Elapsed time.Duration
}

// SwitchoverResult extends FailoverResult with the rebuilt standby.
type SwitchoverResult struct {
	FailoverResult
	// NewStandby is the old primary re-enlisted as the new standby, already
	// started and applying the promoted node's redo, with the fleet manager
	// rebound to it.
	NewStandby *standby.Instance
}

// Broker manages role transitions for one primary/standby pair.
type Broker struct {
	cfg          Config
	master       *standby.Instance // the apply instance being promoted
	failoverHist *obs.Histogram

	mu         sync.Mutex
	state      State
	promoted   *primary.Cluster
	newStandby *standby.Instance
}

// New builds a broker and registers its metrics (broker_role,
// broker_failover_seconds) on the standby master's registry.
func New(cfg Config) *Broker {
	if cfg.Standby == nil {
		panic("broker: config needs a standby")
	}
	if cfg.PromotedInstances <= 0 {
		cfg.PromotedInstances = 1
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	b := &Broker{cfg: cfg, master: cfg.Standby.Master()}
	reg := b.master.Obs()
	reg.GaugeFunc("broker_role",
		"role of this node: 0 standby, 1 promoted primary",
		func() float64 {
			if b.Promoted() != nil {
				return 1
			}
			return 0
		})
	b.failoverHist = reg.Histogram("broker_failover_seconds",
		"wall time of role transitions, invocation to open",
		obs.DurationBuckets(100*time.Microsecond, 100*time.Second, 4))
	return b
}

// State returns the broker's current state.
func (b *Broker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Promoted returns the promoted primary cluster (nil before a transition).
func (b *Broker) Promoted() *primary.Cluster {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.promoted
}

// NewStandby returns the standby rebuilt by a switchover (nil otherwise).
func (b *Broker) NewStandby() *standby.Instance {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.newStandby
}

// Failover promotes the standby after primary loss. The sequence is:
//
//  1. end redo generation (close the old primary, if still reachable, so
//     every thread's stream ends; a dead primary's threads end when the
//     transport gives up at the shipped frontier);
//  2. terminal recovery: drain the merger to end-of-redo, let the apply
//     workers finish, stop the pipeline, and run one final QuerySCN
//     advancement so every shipped commit becomes query-visible;
//  3. tear down the transport (receiver, then shipping server);
//  4. shut down the reader fleet — the promoted node serves all block ranges;
//  5. roll back in-flight transactions (active in the replicated transaction
//     table with no commit shipped);
//  6. open: build a primary cluster over the standby's replica — same
//     database, transaction table and services, SCN clock seeded at the
//     final QuerySCN, transaction-id allocator seeded past every replicated
//     id — serving both roles, with commit-time DBIM maintenance wired to
//     the RETAINED column store;
//  7. restart population over the retained store (primary snapshots now
//     supply consistency points); nothing already populated repopulates.
func (b *Broker) Failover() (*FailoverResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != StateSteady {
		return nil, fmt.Errorf("broker: failover from state %v", b.state)
	}
	// A promotion drains, stops and reopens the pipeline; none of that is a
	// stall. The pause covers the error paths too — Resume resets every stage
	// clock so the disruption gets a fresh deadline.
	wd := b.master.Watchdog()
	wd.Pause("failover")
	defer wd.Resume("failover")
	res, _, err := b.promote(true)
	if err != nil {
		return nil, err
	}
	b.state = StateFailedOver
	return res, nil
}

// Switchover performs a planned role swap: the failover sequence (the old
// primary is closed first, so no redo is lost and the swap is graceful), then
// the old primary is rebuilt as the new standby — adopting its own database
// and transaction table, starting apply just past the promotion SCN, fed
// in-process from the promoted node's redo threads.
func (b *Broker) Switchover() (*SwitchoverResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != StateSteady {
		return nil, fmt.Errorf("broker: switchover from state %v", b.state)
	}
	if b.cfg.Primary == nil {
		return nil, fmt.Errorf("broker: switchover needs a live primary")
	}
	wd := b.master.Watchdog()
	wd.Pause("switchover")
	defer wd.Resume("switchover")
	res, newPri, err := b.promote(false)
	if err != nil {
		return nil, err
	}

	// Rebuild the old primary as the new standby. Its replica is its own
	// (now frozen) database; transactions still active there never shipped a
	// commit, so they are aborted the same way promotion aborted their
	// replicated twins. Apply resumes just past the promotion SCN, fed from
	// the promoted node's streams.
	old := b.cfg.Primary
	old.Txns().AbortActive()
	sbCfg := b.cfg.StandbyConfig
	sbCfg.RowsPerBlock = old.DB().RowsPerBlock()
	newSb := standby.NewFrom(sbCfg, old.DB(), old.Txns(), old.Services(), res.PromotedSCN)
	var streams []*redo.Stream
	for _, inst := range newPri.Instances() {
		streams = append(streams, inst.Stream())
	}
	if err := newSb.Restart(transport.NewInProc(streams...)); err != nil {
		// The promotion stands: what is left is a failed-over configuration.
		b.state = StateFailedOver
		return nil, fmt.Errorf("broker: switchover: start the rebuilt standby: %w", err)
	}
	b.cfg.Standby.Rebind(newSb)
	b.newStandby = newSb
	b.state = StateSwitchedOver
	return &SwitchoverResult{FailoverResult: *res, NewStandby: newSb}, nil
}

// promote runs the shared failover core under b.mu. terminal reports whether
// the old primary is considered lost (failover) or cooperating (switchover);
// both paths currently close it to end redo generation — the distinction is
// documentation and future transport behavior.
func (b *Broker) promote(terminal bool) (*FailoverResult, *primary.Cluster, error) {
	start := time.Now()
	master := b.master
	trace := master.Trace()

	// 1. End redo generation. Closing the primary closes every redo stream;
	// end-of-log then propagates through whichever transport is attached.
	if b.cfg.Primary != nil {
		b.cfg.Primary.Close()
	}

	// 2. Terminal recovery to end-of-redo.
	finalSCN, err := master.FinishRecovery(b.cfg.DrainTimeout)
	if err != nil {
		return nil, nil, err
	}
	trace.Observe(obs.StageTransition, uint64(finalSCN), time.Since(start))

	// 3. Transport teardown: the receiver's mirrors (the archived logs) are
	// fully drained now, so closing cannot lose redo.
	if b.cfg.Source != nil {
		_ = b.cfg.Source.Close()
	}
	if b.cfg.Server != nil {
		_ = b.cfg.Server.Close()
	}

	// 4. The readers received the final publication during terminal recovery;
	// the promoted node serves all block ranges itself from here.
	b.cfg.Standby.Shutdown()

	// 5. Roll back in-flight transactions.
	rolledBack := master.RollbackInFlight()

	// 6. Open read-write, serving both roles so the retained column store
	// keeps receiving commit-time invalidations for standby-service objects.
	// The replica's segments were laid out by redo apply, which bypasses the
	// insert allocator — seal them so new inserts append past the applied rows.
	master.DB().ResetAllocCursors()
	roles := service.RolePrimary | service.RoleStandby
	master.SetRole(roles)
	newPri := primary.NewClusterFrom(b.cfg.PromotedInstances,
		master.DB(), master.Txns(), master.Services(), finalSCN, roles)
	newPri.SetDBIMHook(master.Store())

	// 7. Warm IMCS: population restarts over the retained store; coverage
	// checks skip every retained unit, so only missing ranges populate.
	warm := master.Store().Stats().PopulatedUnits
	master.RestartPopulation(newPri)

	elapsed := time.Since(start)
	b.failoverHist.ObserveDuration(elapsed)
	trace.Observe(obs.StageTransition, uint64(finalSCN), elapsed)
	b.promoted = newPri
	return &FailoverResult{
		PromotedSCN:    finalSCN,
		RolledBackTxns: rolledBack,
		WarmUnits:      warm,
		Elapsed:        elapsed,
	}, newPri, nil
}
