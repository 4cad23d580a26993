// Package cluster is the distributed session tier: the "millions of
// users" scale-out path. A front-door Router consistent-hashes tracked
// targets onto N runtime Nodes, each wrapping its own runtime.Manager
// and checkpoint.Store; sessions move between nodes live, via a
// checkpointed handoff, and survive node death by being resurrected on
// survivors from the dead node's durable store.
//
// The pieces are deliberate re-compositions of subsystems the
// single-process runtime already has:
//
//   - Transport: cluster RPCs are JSON envelopes in remote's versioned
//     control frames (remote.FrameControl), with per-call timeout and
//     capped-backoff retries on every inter-node call.
//   - Health: the Router reuses health.Monitor as a node-level circuit
//     breaker — probe/query error streaks trip a node into quarantine,
//     half-open probes are paced by Monitor.Allow, and recovery closes
//     the breaker. A node Down for longer than Policy.DeathAfter is
//     declared dead and failed over.
//   - Durability: a handoff is pause → Session.Checkpoint (the final
//     checkpoint inside Manager.Evict) → ship checkpoint.SessionState
//     over the wire → Store.Append + Manager.ResumeSession on the
//     receiver → atomic route flip. Failover is the same rehydration
//     driven from disk: survivors adopt the dead node's store
//     directory (its flock died with it) and resume every affected
//     target.
//
// Degradation contract: a position query for a target whose node is
// quarantined, dead, or mid-handoff returns the router's last known
// position marked stale — never an error. Positioning data is
// perishable; a slightly old answer beats an outage.
package cluster

import (
	"errors"
	"net"
	"time"
)

// Errors returned by the cluster tier.
var (
	// ErrUnknownTarget indicates a target the router has never tracked.
	ErrUnknownTarget = errors.New("cluster: unknown target")
	// ErrNoNodes indicates an operation that needs at least one live
	// node on an empty (or fully dead) ring.
	ErrNoNodes = errors.New("cluster: no live nodes")
	// ErrNodeDown indicates an operation on a node that was killed.
	ErrNodeDown = errors.New("cluster: node is down")
	// ErrDuplicateNode indicates joining a node ID that is already a
	// member.
	ErrDuplicateNode = errors.New("cluster: node already joined")
)

// Dialer opens a TCP connection to a node address. Tests substitute
// fault-injecting dialers (chaos.Link) to script partitions and slow
// peers.
type Dialer func(addr string, timeout time.Duration) (net.Conn, error)

func defaultDialer(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// Policy tunes the router. The zero value gives production-ish
// defaults; tests shrink the intervals.
type Policy struct {
	// Replicas is the number of virtual nodes per member on the hash
	// ring (default 64). More replicas smooth the key distribution at
	// the cost of a bigger ring.
	Replicas int
	// ProbeInterval is the health sweep cadence and the half-open probe
	// pacing for quarantined nodes (default 250ms).
	ProbeInterval time.Duration
	// MaxConsecutiveErrors trips a node's breaker (default 3): probe
	// and query transport failures count, successes reset the streak.
	MaxConsecutiveErrors int
	// DeathAfter is how long a node must stay quarantined before the
	// router declares it dead and fails its sessions over to survivors
	// (default 8×ProbeInterval). Short partitions heal inside this
	// grace window without moving any session.
	DeathAfter time.Duration
	// HandoffConcurrency bounds parallel session handoffs during
	// rebalancing (default 4).
	HandoffConcurrency int
	// DialTimeout bounds one connection attempt (default 1s).
	DialTimeout time.Duration
	// CallTimeout bounds one RPC attempt, write to reply (default 2s).
	CallTimeout time.Duration
	// Retries is how many times a transport-failed RPC is retried
	// (default 2); application-level errors are never retried.
	Retries int
	// RetryBackoff is the wait before the first retry, doubling per
	// attempt up to CallTimeout (default 20ms).
	RetryBackoff time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.Replicas <= 0 {
		p.Replicas = 64
	}
	if p.ProbeInterval <= 0 {
		p.ProbeInterval = 250 * time.Millisecond
	}
	if p.MaxConsecutiveErrors <= 0 {
		p.MaxConsecutiveErrors = 3
	}
	if p.DeathAfter <= 0 {
		p.DeathAfter = 8 * p.ProbeInterval
	}
	if p.HandoffConcurrency <= 0 {
		p.HandoffConcurrency = 4
	}
	if p.DialTimeout <= 0 {
		p.DialTimeout = time.Second
	}
	if p.CallTimeout <= 0 {
		p.CallTimeout = 2 * time.Second
	}
	if p.Retries < 0 {
		p.Retries = 0
	} else if p.Retries == 0 {
		p.Retries = 2
	}
	if p.RetryBackoff <= 0 {
		p.RetryBackoff = 20 * time.Millisecond
	}
	return p
}
