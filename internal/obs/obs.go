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
// JSON and WritePrometheus to the Prometheus text served by Handler
// (http.go) next to net/http/pprof. Both render the hub's one metric
// table, summing the live sessions' emission cells at read time.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
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
// shared by every session and store that reports into it. All
// methods are safe for concurrent use. The zero value is NOT ready —
// use New.
type Metrics struct {
	// SpansDropped counts gate-refused deliveries. Emissions are
	// counted per node, per session (see SpansEmitted).
	SpansDropped Counter

	// Session-manager lifecycle; SessionsLive is the number of sessions
	// the manager holds.
	SessionsCreated Counter
	SessionsEvicted Counter
	SessionsResumed Counter
	SessionsLive    Gauge

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

	// nodes holds each node ID's metrics, created on first touch.
	nodes family[NodeMetrics]

	// observers holds the GraphObservers not yet closed; reads sum
	// their emission cells. obsMu also orders a Close's fold into
	// nodes against those reads, so no count is seen twice or missed.
	obsMu     sync.Mutex
	observers map[*GraphObserver]struct{}

	// providerTransitions counts transitions INTO each availability
	// state, by state name.
	providerTransitions family[Counter]

	// revisionLive gauges the sessions currently running each blueprint
	// revision — the fleet's upgrade progress at a glance.
	revisionLive family[Gauge]

	// clusterNodeSessions gauges the sessions the router currently
	// routes to each cluster node; clusterNodeUp is 1 while a node's
	// breaker is closed, 0 while quarantined or dead.
	clusterNodeSessions family[Gauge]
	clusterNodeUp       family[Gauge]
}

// family is a labeled metric family: one metric per label value,
// created on first use. label is the Prometheus label the value goes
// in; Snapshot keys the family's JSON object by the value itself.
type family[V any] struct {
	label string
	m     sync.Map // label value -> *V
}

// get returns (creating on first use) the metric for one label value.
func (f *family[V]) get(key string) *V {
	if v, ok := f.m.Load(key); ok {
		return v.(*V)
	}
	v, _ := f.m.LoadOrStore(key, new(V))
	return v.(*V)
}

// keys returns the family's label values, sorted.
func (f *family[V]) keys() []string {
	var out []string
	f.m.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// New returns an empty hub.
func New() *Metrics {
	m := &Metrics{observers: make(map[*GraphObserver]struct{})}
	m.nodes.label = "node"
	m.providerTransitions.label = "state"
	m.revisionLive.label = "revision"
	m.clusterNodeSessions.label = "node"
	m.clusterNodeUp.label = "node"
	return m
}

// Node returns (creating on first use) the named node's metrics.
func (m *Metrics) Node(id string) *NodeMetrics { return m.nodes.get(id) }

// emissionTotals returns every node's emission count, what closed
// observers folded in plus what the live observers' cells hold now,
// and their sum.
func (m *Metrics) emissionTotals() (map[string]uint64, uint64) {
	out := make(map[string]uint64)
	var sum uint64
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	m.nodes.m.Range(func(k, v any) bool {
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

// ProviderTransition counts one availability transition into the named
// JSR-179 state ("AVAILABLE", "TEMPORARILY_UNAVAILABLE", ...).
func (m *Metrics) ProviderTransition(state string) { m.providerTransitions.get(state).Inc() }

// RevisionLive returns (creating on first use) the live-session gauge
// for one blueprint revision. The manager moves sessions between
// revision gauges as they are created, migrated, resumed and retired.
func (m *Metrics) RevisionLive(rev int) *Gauge { return m.revisionLive.get(strconv.Itoa(rev)) }

// ClusterNodeSessions returns (creating on first use) the gauge of
// sessions routed to one cluster node.
func (m *Metrics) ClusterNodeSessions(node string) *Gauge { return m.clusterNodeSessions.get(node) }

// ClusterNodeUp returns (creating on first use) the up/down gauge for
// one cluster node: 1 healthy, 0 quarantined or dead.
func (m *Metrics) ClusterNodeUp(node string) *Gauge { return m.clusterNodeUp.get(node) }

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

// metric is one row of the hub's metric table, the one list both
// exporters render: the JSON key ("group.key" nests it under group),
// the Prometheus family name and help text, and the metric itself — a
// *Counter, *Gauge, *Histogram, *family[Counter] or *family[Gauge].
type metric struct {
	key, name, help string
	v               any
}

// table lists the hub's metrics in exposition order. spans_emitted
// and the per-node metrics are not in it: both derive from one read of
// the emission cells (emissionTotals), so each exporter renders them
// around the table.
func (m *Metrics) table() []metric {
	return []metric{
		{"spans_dropped", "perpos_spans_dropped_total", "Gate-refused deliveries.", &m.SpansDropped},
		{"sessions_created", "perpos_sessions_created_total", "Sessions instantiated from the blueprint.", &m.SessionsCreated},
		{"sessions_evicted", "perpos_sessions_evicted_total", "Sessions evicted or closed.", &m.SessionsEvicted},
		{"sessions_resumed", "perpos_sessions_resumed_total", "Sessions rehydrated from checkpoints.", &m.SessionsResumed},
		{"supervisor_engaged", "perpos_supervisor_engaged_total", "Supervisor reroute engagements and switches.", &m.SupervisorEngaged},
		{"supervisor_disengaged", "perpos_supervisor_disengaged_total", "Supervisor full restores.", &m.SupervisorDisengaged},
		{"checkpoint.writes", "perpos_checkpoint_writes_total", "Durable checkpoint appends.", &m.CheckpointWrites},
		{"checkpoint.errors", "perpos_checkpoint_errors_total", "Failed checkpoint appends.", &m.CheckpointErrors},
		{"checkpoint.bytes", "perpos_checkpoint_bytes_total", "Bytes appended to checkpoint journals.", &m.CheckpointBytes},
		{"rollout.started", "perpos_rollouts_started_total", "Rolling upgrades started.", &m.RolloutsStarted},
		{"rollout.completed", "perpos_rollouts_completed_total", "Rolling upgrades completed.", &m.RolloutsCompleted},
		{"rollout.rolled_back", "perpos_rollouts_rolled_back_total", "Rolling upgrades rolled back by the canary gate.", &m.RolloutsRolledBack},
		{"rollout.upgraded", "perpos_rollout_sessions_upgraded_total", "Sessions migrated to a new revision.", &m.RolloutUpgraded},
		{"rollout.reverted", "perpos_rollout_sessions_reverted_total", "Canary sessions migrated back after a gate failure.", &m.RolloutReverted},
		{"rollout.failed", "perpos_rollout_sessions_failed_total", "Session migrations that errored.", &m.RolloutFailed},
		{"sessions_live", "perpos_sessions_live", "Live sessions.", &m.SessionsLive},
		{"revision_live", "perpos_revision_sessions_live", "Live sessions per blueprint revision.", &m.revisionLive},
		{"provider_transitions", "perpos_provider_transitions_total", "Provider availability transitions into each state.", &m.providerTransitions},
		{"cluster.handoffs", "perpos_cluster_handoffs_total", "Completed cluster session handoffs.", &m.ClusterHandoffs},
		{"cluster.handoff_failed", "perpos_cluster_handoff_failed_total", "Cluster session handoffs that failed and rolled back.", &m.ClusterHandoffFailed},
		{"cluster.failovers", "perpos_cluster_failovers_total", "Node-death failovers executed by the router.", &m.ClusterFailovers},
		{"cluster.resurrected", "perpos_cluster_sessions_resurrected_total", "Sessions resurrected on survivors after a node death.", &m.ClusterResurrected},
		{"cluster.rebalanced", "perpos_cluster_sessions_rebalanced_total", "Sessions moved by join/leave rebalancing.", &m.ClusterRebalanced},
		{"cluster.stale_served", "perpos_cluster_stale_served_total", "Position queries served from the router's last-known cache.", &m.ClusterStaleServed},
		{"cluster.pump_errors", "perpos_cluster_pump_errors_total", "Session steps and checkpoints that failed in a node's traffic pump.", &m.ClusterPumpErrors},
		{"cluster.node_sessions", "perpos_cluster_node_sessions", "Sessions routed to each cluster node.", &m.clusterNodeSessions},
		{"cluster.node_up", "perpos_cluster_node_up", "Cluster node breaker state: 1 healthy, 0 quarantined or dead.", &m.clusterNodeUp},
		{"cluster.handoff_ns", "perpos_cluster_handoff_ns", "End-to-end session handoff latency in nanoseconds.", &m.ClusterHandoffNs},
		{"rules.engaged", "perpos_rules_engaged_total", "Rule-engine action engagements.", &m.RulesEngaged},
		{"rules.disengaged", "perpos_rules_disengaged_total", "Rule-engine action reverts.", &m.RulesDisengaged},
		{"rules.quarantined", "perpos_rules_quarantined_total", "Rules benched by flap damping or guard rollback.", &m.RulesQuarantined},
		{"rules.rolled_back", "perpos_rules_rolled_back_total", "Rule actions reverted by the probation guard.", &m.RulesRolledBack},
		{"rules.deferred", "perpos_rules_deferred_total", "Rule engagements blocked by arbitration.", &m.RulesDeferred},
		{"checkpoint.write_ns", "perpos_checkpoint_write_ns", "Checkpoint append latency in nanoseconds.", &m.CheckpointNs},
		{"tree_depth", "perpos_tree_depth", "Channel data-tree depth distribution (one delivery in 16 sampled).", &m.TreeDepth},
	}
}

// Snapshot renders the hub as a JSON-marshalable tree — the /metrics
// payload. It is a point-in-time read under concurrent traffic: values
// are individually atomic but not mutually consistent, which is the
// usual (and sufficient) monitoring contract.
func (m *Metrics) Snapshot() map[string]any {
	emissions, spans := m.emissionTotals()
	nodes := make(map[string]nodeSnapshot)
	for _, id := range m.nodes.keys() {
		nm := m.Node(id)
		nodes[id] = nodeSnapshot{
			Emissions: emissions[id],
			Errors:    nm.Errors.Value(),
			Panics:    nm.Panics.Value(),
			Drops:     nm.Drops.Value(),
			Restarts:  nm.Restarts.Value(),
			ProcessNs: nm.ProcessNs.Snapshot(),
		}
	}
	out := map[string]any{"spans_emitted": spans, "nodes": nodes}
	for _, r := range m.table() {
		dst, key := out, r.key
		if group, k, ok := strings.Cut(r.key, "."); ok {
			sub, _ := out[group].(map[string]any)
			if sub == nil {
				sub = make(map[string]any)
				out[group] = sub
			}
			dst, key = sub, k
		}
		dst[key] = jsonValue(r.v)
	}
	return out
}

// jsonValue reads one table metric for Snapshot.
func jsonValue(v any) any {
	switch v := v.(type) {
	case *Counter:
		return v.Value()
	case *Gauge:
		return v.Value()
	case *Histogram:
		return v.Snapshot()
	case *family[Counter]:
		out := make(map[string]uint64)
		for _, k := range v.keys() {
			out[k] = v.get(k).Value()
		}
		return out
	case *family[Gauge]:
		out := make(map[string]int64)
		for _, k := range v.keys() {
			out[k] = v.get(k).Value()
		}
		return out
	}
	panic(fmt.Sprintf("obs: no JSON form for %T", v))
}
