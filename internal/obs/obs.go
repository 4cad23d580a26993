// Package obs is the observability subsystem: the translucency story
// of the paper applied to the middleware's own runtime. Where the
// PSL/PCL let a developer inspect the positioning PROCESS, obs lets an
// operator inspect the positioning SYSTEM — per-node throughput and
// process latency, channel data-tree depth, provider availability
// churn, supervisor reroute counts, checkpoint cost — without stopping
// it.
//
// The design point is cost: every hot-path hook is a handful of atomic
// operations (see Counter/Gauge/Histogram in metrics.go); nothing in
// this package takes a lock on an emission path. The per-emission
// count goes into the session's own GraphObserver cells rather than a
// counter every session shares, and the tree-depth histogram is fed
// one channel delivery in 16. Hooks ride the seams the engine already
// has — the graph's core.Observer (GraphObserver),
// channel.WithTreeObserver, checkpoint.Options.OnAppend — so a session
// without a Metrics hub pays nothing at all.
//
// Export is pull-based: Metrics.Snapshot marshals to the expvar-style
// JSON served by Handler (http.go) next to net/http/pprof, summing the
// live sessions' emission cells at read time.
package obs

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// NodeMetrics aggregates one graph node's counters. Per-session graphs
// share the hub, so a node ID like "gps" accumulates across every
// session instantiated from the blueprint — the per-component view of
// the whole process, not of one target. The node's emission count is
// not here: it lives in each session's GraphObserver cells until the
// session closes (see Metrics.Emissions).
type NodeMetrics struct {
	// emissions holds the counts closed GraphObservers folded in.
	emissions Counter
	// Errors counts failed process/step outcomes; Panics the subset
	// that were contained panics.
	Errors Counter
	Panics Counter
	// Drops counts deliveries the breaker's gate refused while the node
	// was quarantined.
	Drops Counter
	// Restarts counts successful source restarts.
	Restarts Counter
	// ProcessNs is the wall-clock process/step latency distribution in
	// nanoseconds, on either engine. It is sampled (one call in 16 per
	// node is timed) and includes the synchronous hand-off downstream.
	ProcessNs Histogram
}

// nodeSnapshot is the JSON view of a NodeMetrics.
type nodeSnapshot struct {
	Emissions uint64            `json:"emissions"`
	Errors    uint64            `json:"errors,omitempty"`
	Panics    uint64            `json:"panics,omitempty"`
	Drops     uint64            `json:"drops,omitempty"`
	Restarts  uint64            `json:"restarts,omitempty"`
	ProcessNs HistogramSnapshot `json:"process_ns"`
}

// Metrics is the hub: one per process (or per manager under test),
// shared by every session, shard and store that reports into it. All
// methods are safe for concurrent use. The zero value is NOT ready —
// use New.
type Metrics struct {
	// SpansDropped counts gate-refused deliveries. Emissions are
	// counted per node, per session (see SpansEmitted).
	SpansDropped Counter

	// Session-manager lifecycle.
	SessionsCreated Counter
	SessionsEvicted Counter
	SessionsResumed Counter

	// Supervisor reroute churn: engage covers both fresh engagements
	// and rule switches; disengage is a full restore.
	SupervisorEngaged    Counter
	SupervisorDisengaged Counter

	// Checkpoint write cost.
	CheckpointWrites Counter
	CheckpointErrors Counter
	CheckpointBytes  Counter
	CheckpointNs     Histogram

	// Rolling-upgrade progress (runtime.Manager.Rollout): rollout
	// lifecycle counts plus per-session migration outcomes. Reverted
	// counts canary sessions migrated back after a gate failure; Failed
	// counts sessions whose migration errored (they remain on their old
	// revision — a failed migration rolls the graph back in place).
	RolloutsStarted    Counter
	RolloutsCompleted  Counter
	RolloutsRolledBack Counter
	RolloutUpgraded    Counter
	RolloutReverted    Counter
	RolloutFailed      Counter

	// Rules-engine lifecycle (internal/rules): engagements,
	// disengagements, flap-damping quarantines, probation rollbacks and
	// deferred (arbitration-blocked) engagements across all sessions.
	RulesEngaged     Counter
	RulesDisengaged  Counter
	RulesQuarantined Counter
	RulesRolledBack  Counter
	RulesDeferred    Counter

	// Remote link traffic (internal/remote): samples shipped over an
	// Uplink and samples shed because the peer was unreachable past the
	// immediate-retry + backoff gate. Without these an unreachable peer
	// drops positioning data silently.
	RemoteSent    Counter
	RemoteDropped Counter

	// Cluster distribution (internal/cluster): completed and failed
	// session handoffs, node-death failovers, sessions resurrected on
	// survivors, sessions moved by join/leave rebalancing, and position
	// queries served from the router's last-known cache while the
	// owning node was unreachable or mid-handoff (the degradation
	// contract: stale beats erroring).
	ClusterHandoffs      Counter
	ClusterHandoffFailed Counter
	ClusterFailovers     Counter
	ClusterResurrected   Counter
	ClusterRebalanced    Counter
	ClusterStaleServed   Counter
	// ClusterPumpErrors counts session steps and periodic checkpoints
	// that failed inside a node's traffic pump, which skips the session
	// and carries on with the round.
	ClusterPumpErrors Counter
	// ClusterHandoffNs is the end-to-end handoff latency distribution
	// (pause → checkpoint → ship → resume → route flip) in nanoseconds.
	ClusterHandoffNs Histogram

	// TreeDepth is the distribution of channel data-tree depths (PCL),
	// sampled by the channel layer's tree observer: the first of every
	// 16 deliveries per channel.
	TreeDepth Histogram

	// shardLive is one live-session gauge per manager shard, sized by
	// InitShards. The slice itself is written once before traffic.
	shardMu   sync.Mutex
	shardLive []*Gauge

	// nodes maps node ID -> *NodeMetrics, populated on first touch.
	nodes sync.Map

	// observers holds the GraphObservers not yet closed; reads sum
	// their emission cells. obsMu also orders a Close's fold into
	// nodes against those reads, so no count is seen twice or missed.
	obsMu     sync.Mutex
	observers map[*GraphObserver]struct{}

	// providerTransitions maps availability-state name -> *Counter of
	// transitions INTO that state.
	providerTransitions sync.Map

	// revisionLive maps blueprint revision number -> *Gauge of sessions
	// currently running that revision — the fleet's upgrade progress at
	// a glance.
	revisionLive sync.Map

	// remoteBackoff maps uplink ID -> *Gauge holding the current redial
	// backoff in nanoseconds (0 only before first use; the base backoff
	// once connected).
	remoteBackoff sync.Map

	// clusterNodeSessions maps cluster-node ID -> *Gauge of sessions the
	// router currently routes to that node; clusterNodeUp maps node ID
	// -> *Gauge that is 1 while the node's breaker is closed, 0 while
	// quarantined or dead.
	clusterNodeSessions sync.Map
	clusterNodeUp       sync.Map
}

// New returns an empty hub.
func New() *Metrics { return &Metrics{observers: make(map[*GraphObserver]struct{})} }

// Node returns (creating on first use) the named node's metrics.
func (m *Metrics) Node(id string) *NodeMetrics {
	if v, ok := m.nodes.Load(id); ok {
		return v.(*NodeMetrics)
	}
	v, _ := m.nodes.LoadOrStore(id, &NodeMetrics{})
	return v.(*NodeMetrics)
}

// emissionTotals returns every node's emission count, what closed
// observers folded in plus what the live observers' cells hold now,
// and their sum.
func (m *Metrics) emissionTotals() (map[string]uint64, uint64) {
	out := make(map[string]uint64)
	var sum uint64
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	m.nodes.Range(func(k, v any) bool {
		n := v.(*NodeMetrics).emissions.Value()
		out[k.(string)] = n
		sum += n
		return true
	})
	for o := range m.observers {
		for _, c := range o.loadCells() {
			n := c.n.Value()
			out[c.id] += n
			sum += n
		}
	}
	return out, sum
}

// Emissions returns how many samples the named node emitted, summed
// over every session observed into the hub, live or closed.
func (m *Metrics) Emissions(node string) uint64 {
	byNode, _ := m.emissionTotals()
	return byNode[node]
}

// SpansEmitted returns the emissions counted anywhere in the
// instrumented graphs: the sum of every node's Emissions.
func (m *Metrics) SpansEmitted() uint64 {
	_, sum := m.emissionTotals()
	return sum
}

// LiveCells returns how many emission cells the hub still sums from
// observers that have not been closed (inspection and tests).
func (m *Metrics) LiveCells() int {
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	n := 0
	for o := range m.observers {
		n += len(o.loadCells())
	}
	return n
}

// InitShards sizes the per-shard live-session gauges. Idempotent per
// size; the manager calls it once at construction, before traffic.
func (m *Metrics) InitShards(n int) {
	m.shardMu.Lock()
	defer m.shardMu.Unlock()
	if len(m.shardLive) == n {
		return
	}
	gauges := make([]*Gauge, n)
	for i := range gauges {
		gauges[i] = &Gauge{}
	}
	m.shardLive = gauges
}

// ShardLive returns shard i's live-session gauge, or nil when i is out
// of the InitShards range.
func (m *Metrics) ShardLive(i int) *Gauge {
	m.shardMu.Lock()
	defer m.shardMu.Unlock()
	if i < 0 || i >= len(m.shardLive) {
		return nil
	}
	return m.shardLive[i]
}

// SessionsLive sums the shard gauges.
func (m *Metrics) SessionsLive() int64 {
	m.shardMu.Lock()
	defer m.shardMu.Unlock()
	var n int64
	for _, g := range m.shardLive {
		n += g.Value()
	}
	return n
}

// ProviderTransition counts one availability transition into the named
// JSR-179 state ("AVAILABLE", "TEMPORARILY_UNAVAILABLE", ...).
func (m *Metrics) ProviderTransition(state string) {
	if v, ok := m.providerTransitions.Load(state); ok {
		v.(*Counter).Inc()
		return
	}
	v, _ := m.providerTransitions.LoadOrStore(state, &Counter{})
	v.(*Counter).Inc()
}

// RevisionLive returns (creating on first use) the live-session gauge
// for one blueprint revision. The manager moves sessions between
// revision gauges as they are created, migrated, resumed and retired.
func (m *Metrics) RevisionLive(rev int) *Gauge {
	if v, ok := m.revisionLive.Load(rev); ok {
		return v.(*Gauge)
	}
	v, _ := m.revisionLive.LoadOrStore(rev, &Gauge{})
	return v.(*Gauge)
}

// RemoteBackoff returns (creating on first use) the named uplink's
// current-backoff gauge, in nanoseconds.
func (m *Metrics) RemoteBackoff(uplink string) *Gauge {
	if v, ok := m.remoteBackoff.Load(uplink); ok {
		return v.(*Gauge)
	}
	v, _ := m.remoteBackoff.LoadOrStore(uplink, &Gauge{})
	return v.(*Gauge)
}

// ClusterNodeSessions returns (creating on first use) the gauge of
// sessions routed to one cluster node.
func (m *Metrics) ClusterNodeSessions(node string) *Gauge {
	if v, ok := m.clusterNodeSessions.Load(node); ok {
		return v.(*Gauge)
	}
	v, _ := m.clusterNodeSessions.LoadOrStore(node, &Gauge{})
	return v.(*Gauge)
}

// ClusterNodeUp returns (creating on first use) the up/down gauge for
// one cluster node: 1 healthy, 0 quarantined or dead.
func (m *Metrics) ClusterNodeUp(node string) *Gauge {
	if v, ok := m.clusterNodeUp.Load(node); ok {
		return v.(*Gauge)
	}
	v, _ := m.clusterNodeUp.LoadOrStore(node, &Gauge{})
	return v.(*Gauge)
}

// ObserveTreeDepth records one channel data-tree depth.
func (m *Metrics) ObserveTreeDepth(depth int) {
	m.TreeDepth.Observe(int64(depth))
}

// CheckpointAppend records one durable append. Its signature matches
// checkpoint.Options.OnAppend so callers wire the store directly:
//
//	checkpoint.Options{OnAppend: metrics.CheckpointAppend}
func (m *Metrics) CheckpointAppend(_ string, bytes int, d time.Duration, err error) {
	if err != nil {
		m.CheckpointErrors.Inc()
		return
	}
	m.CheckpointWrites.Inc()
	m.CheckpointBytes.Add(uint64(bytes))
	m.CheckpointNs.ObserveDuration(d)
}

// Snapshot renders the hub as a JSON-marshalable tree — the /metrics
// payload. It is a point-in-time read under concurrent traffic: values
// are individually atomic but not mutually consistent, which is the
// usual (and sufficient) monitoring contract.
func (m *Metrics) Snapshot() map[string]any {
	emissions, spans := m.emissionTotals()
	nodes := make(map[string]nodeSnapshot)
	m.nodes.Range(func(k, v any) bool {
		nm := v.(*NodeMetrics)
		nodes[k.(string)] = nodeSnapshot{
			Emissions: emissions[k.(string)],
			Errors:    nm.Errors.Value(),
			Panics:    nm.Panics.Value(),
			Drops:     nm.Drops.Value(),
			Restarts:  nm.Restarts.Value(),
			ProcessNs: nm.ProcessNs.Snapshot(),
		}
		return true
	})

	transitions := make(map[string]uint64)
	m.providerTransitions.Range(func(k, v any) bool {
		transitions[k.(string)] = v.(*Counter).Value()
		return true
	})

	revisions := make(map[string]int64)
	m.revisionLive.Range(func(k, v any) bool {
		revisions[strconv.Itoa(k.(int))] = v.(*Gauge).Value()
		return true
	})

	m.shardMu.Lock()
	shardLive := make([]int64, len(m.shardLive))
	var live int64
	for i, g := range m.shardLive {
		shardLive[i] = g.Value()
		live += g.Value()
	}
	m.shardMu.Unlock()

	backoffs := make(map[string]int64)
	m.remoteBackoff.Range(func(k, v any) bool {
		backoffs[k.(string)] = v.(*Gauge).Value()
		return true
	})
	nodeSessions := make(map[string]int64)
	m.clusterNodeSessions.Range(func(k, v any) bool {
		nodeSessions[k.(string)] = v.(*Gauge).Value()
		return true
	})
	nodeUp := make(map[string]int64)
	m.clusterNodeUp.Range(func(k, v any) bool {
		nodeUp[k.(string)] = v.(*Gauge).Value()
		return true
	})

	return map[string]any{
		"spans_emitted":         spans,
		"spans_dropped":         m.SpansDropped.Value(),
		"sessions_created":      m.SessionsCreated.Value(),
		"sessions_evicted":      m.SessionsEvicted.Value(),
		"sessions_resumed":      m.SessionsResumed.Value(),
		"sessions_live":         live,
		"shard_live":            shardLive,
		"supervisor_engaged":    m.SupervisorEngaged.Value(),
		"supervisor_disengaged": m.SupervisorDisengaged.Value(),
		"provider_transitions":  transitions,
		"revision_live":         revisions,
		"rollout": map[string]any{
			"started":     m.RolloutsStarted.Value(),
			"completed":   m.RolloutsCompleted.Value(),
			"rolled_back": m.RolloutsRolledBack.Value(),
			"upgraded":    m.RolloutUpgraded.Value(),
			"reverted":    m.RolloutReverted.Value(),
			"failed":      m.RolloutFailed.Value(),
		},
		"checkpoint": map[string]any{
			"writes":   m.CheckpointWrites.Value(),
			"errors":   m.CheckpointErrors.Value(),
			"bytes":    m.CheckpointBytes.Value(),
			"write_ns": m.CheckpointNs.Snapshot(),
		},
		"remote": map[string]any{
			"sent":       m.RemoteSent.Value(),
			"dropped":    m.RemoteDropped.Value(),
			"backoff_ns": backoffs,
		},
		"cluster": map[string]any{
			"handoffs":       m.ClusterHandoffs.Value(),
			"handoff_failed": m.ClusterHandoffFailed.Value(),
			"failovers":      m.ClusterFailovers.Value(),
			"resurrected":    m.ClusterResurrected.Value(),
			"rebalanced":     m.ClusterRebalanced.Value(),
			"stale_served":   m.ClusterStaleServed.Value(),
			"pump_errors":    m.ClusterPumpErrors.Value(),
			"handoff_ns":     m.ClusterHandoffNs.Snapshot(),
			"node_sessions":  nodeSessions,
			"node_up":        nodeUp,
		},
		"rules": map[string]any{
			"engaged":     m.RulesEngaged.Value(),
			"disengaged":  m.RulesDisengaged.Value(),
			"quarantined": m.RulesQuarantined.Value(),
			"rolled_back": m.RulesRolledBack.Value(),
			"deferred":    m.RulesDeferred.Value(),
		},
		"tree_depth": m.TreeDepth.Snapshot(),
		"nodes":      nodes,
	}
}

// NodeIDs returns the IDs with per-node metrics, sorted (inspection
// and tests).
func (m *Metrics) NodeIDs() []string {
	var out []string
	m.nodes.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}
