package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// labelEscaper escapes a label value per the Prometheus text exposition
// format: exactly backslash, double-quote and line feed are escaped —
// nothing else. strconv.Quote is NOT equivalent: it also escapes tabs,
// control bytes and non-ASCII as \xNN/\uNNNN sequences, which the
// exposition format has no syntax for, so a scraper would read those
// backslashes literally and the label value would no longer round-trip.
// Node IDs come from config, so hostile values must survive verbatim.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// quoteLabel renders a label value as `"escaped"`.
func quoteLabel(v string) string { return `"` + labelEscaper.Replace(v) + `"` }

// WritePrometheus renders the hub in the Prometheus text exposition
// format (version 0.0.4) — the push-less integration path for external
// scrapers, served next to the JSON snapshot by Handler. Counters map
// to counter metrics, gauges to gauge metrics, and every Histogram to a
// prometheus histogram with cumulative log2 buckets (le="1", "2", "4",
// ... matching the histBuckets contract, plus +Inf).
//
// Like Snapshot it is a point-in-time read under traffic: values are
// individually atomic, not mutually consistent. Rendering takes no
// locks beyond the shard-gauge mutex.
func WritePrometheus(w io.Writer, m *Metrics) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	emissions, spans := m.emissionTotals()
	counter("perpos_spans_emitted_total", "Samples emitted across all instrumented graphs.", spans)
	counter("perpos_spans_dropped_total", "Gate-refused deliveries.", m.SpansDropped.Value())
	counter("perpos_sessions_created_total", "Sessions instantiated from the blueprint.", m.SessionsCreated.Value())
	counter("perpos_sessions_evicted_total", "Sessions evicted or closed.", m.SessionsEvicted.Value())
	counter("perpos_sessions_resumed_total", "Sessions rehydrated from checkpoints.", m.SessionsResumed.Value())
	counter("perpos_supervisor_engaged_total", "Supervisor reroute engagements and switches.", m.SupervisorEngaged.Value())
	counter("perpos_supervisor_disengaged_total", "Supervisor full restores.", m.SupervisorDisengaged.Value())
	counter("perpos_checkpoint_writes_total", "Durable checkpoint appends.", m.CheckpointWrites.Value())
	counter("perpos_checkpoint_errors_total", "Failed checkpoint appends.", m.CheckpointErrors.Value())
	counter("perpos_checkpoint_bytes_total", "Bytes appended to checkpoint journals.", m.CheckpointBytes.Value())
	counter("perpos_rollouts_started_total", "Rolling upgrades started.", m.RolloutsStarted.Value())
	counter("perpos_rollouts_completed_total", "Rolling upgrades completed.", m.RolloutsCompleted.Value())
	counter("perpos_rollouts_rolled_back_total", "Rolling upgrades rolled back by the canary gate.", m.RolloutsRolledBack.Value())
	counter("perpos_rollout_sessions_upgraded_total", "Sessions migrated to a new revision.", m.RolloutUpgraded.Value())
	counter("perpos_rollout_sessions_reverted_total", "Canary sessions migrated back after a gate failure.", m.RolloutReverted.Value())
	counter("perpos_rollout_sessions_failed_total", "Session migrations that errored.", m.RolloutFailed.Value())

	gauge("perpos_sessions_live", "Live sessions across all shards.", m.SessionsLive())

	m.shardMu.Lock()
	shardLive := make([]int64, len(m.shardLive))
	for i, g := range m.shardLive {
		shardLive[i] = g.Value()
	}
	m.shardMu.Unlock()
	if len(shardLive) > 0 {
		fmt.Fprintf(w, "# HELP perpos_shard_sessions_live Live sessions per manager shard.\n# TYPE perpos_shard_sessions_live gauge\n")
		for i, v := range shardLive {
			fmt.Fprintf(w, "perpos_shard_sessions_live{shard=%s} %d\n", quoteLabel(strconv.Itoa(i)), v)
		}
	}

	writeLabeledGauges(w, "perpos_revision_sessions_live", "Live sessions per blueprint revision.",
		"revision", collectGauges(&m.revisionLive))
	writeLabeledCounters(w, "perpos_provider_transitions_total", "Provider availability transitions into each state.",
		"state", collectCounters(&m.providerTransitions))

	counter("perpos_remote_sent_total", "Samples shipped over remote uplinks.", m.RemoteSent.Value())
	counter("perpos_remote_dropped_total", "Samples shed because the uplink peer was unreachable.", m.RemoteDropped.Value())
	writeLabeledGauges(w, "perpos_remote_backoff_ns", "Current uplink redial backoff in nanoseconds.",
		"uplink", collectGauges(&m.remoteBackoff))

	counter("perpos_cluster_handoffs_total", "Completed cluster session handoffs.", m.ClusterHandoffs.Value())
	counter("perpos_cluster_handoff_failed_total", "Cluster session handoffs that failed and rolled back.", m.ClusterHandoffFailed.Value())
	counter("perpos_cluster_failovers_total", "Node-death failovers executed by the router.", m.ClusterFailovers.Value())
	counter("perpos_cluster_sessions_resurrected_total", "Sessions resurrected on survivors after a node death.", m.ClusterResurrected.Value())
	counter("perpos_cluster_sessions_rebalanced_total", "Sessions moved by join/leave rebalancing.", m.ClusterRebalanced.Value())
	counter("perpos_cluster_stale_served_total", "Position queries served from the router's last-known cache.", m.ClusterStaleServed.Value())
	counter("perpos_cluster_pump_errors_total", "Session steps and checkpoints that failed in a node's traffic pump.", m.ClusterPumpErrors.Value())
	writeLabeledGauges(w, "perpos_cluster_node_sessions", "Sessions routed to each cluster node.",
		"node", collectGauges(&m.clusterNodeSessions))
	writeLabeledGauges(w, "perpos_cluster_node_up", "Cluster node breaker state: 1 healthy, 0 quarantined or dead.",
		"node", collectGauges(&m.clusterNodeUp))
	writeHistogram(w, "perpos_cluster_handoff_ns", "End-to-end session handoff latency in nanoseconds.", nil, &m.ClusterHandoffNs)

	counter("perpos_rules_engaged_total", "Rule-engine action engagements.", m.RulesEngaged.Value())
	counter("perpos_rules_disengaged_total", "Rule-engine action reverts.", m.RulesDisengaged.Value())
	counter("perpos_rules_quarantined_total", "Rules benched by flap damping or guard rollback.", m.RulesQuarantined.Value())
	counter("perpos_rules_rolled_back_total", "Rule actions reverted by the probation guard.", m.RulesRolledBack.Value())
	counter("perpos_rules_deferred_total", "Rule engagements blocked by arbitration.", m.RulesDeferred.Value())

	writeHistogram(w, "perpos_checkpoint_write_ns", "Checkpoint append latency in nanoseconds.", nil, &m.CheckpointNs)
	writeHistogram(w, "perpos_tree_depth", "Channel data-tree depth distribution (one delivery in 16 sampled).", nil, &m.TreeDepth)

	// Per-node metrics, sorted for a stable exposition.
	for _, id := range m.NodeIDs() {
		nm := m.Node(id)
		label := map[string]string{"node": id}
		writeLabeledCounter(w, "perpos_node_emissions_total", "Samples emitted by the node.", label, emissions[id])
		writeLabeledCounter(w, "perpos_node_errors_total", "Failed process/step outcomes.", label, nm.Errors.Value())
		writeLabeledCounter(w, "perpos_node_panics_total", "Contained panics.", label, nm.Panics.Value())
		writeLabeledCounter(w, "perpos_node_drops_total", "Gate-refused deliveries.", label, nm.Drops.Value())
		writeLabeledCounter(w, "perpos_node_restarts_total", "Source restarts.", label, nm.Restarts.Value())
		writeHistogram(w, "perpos_node_process_ns", "Node process/step latency in nanoseconds (one call in 16 sampled).", label, &nm.ProcessNs)
	}
}

func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := "{"
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		out += k + "=" + quoteLabel(labels[k])
	}
	return out + "}"
}

func writeLabeledCounter(w io.Writer, name, help string, labels map[string]string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s%s %d\n", name, help, name, name, labelString(labels), v)
}

func collectCounters(src *sync.Map) map[string]uint64 {
	out := make(map[string]uint64)
	src.Range(func(k, v any) bool {
		out[keyString(k)] = v.(*Counter).Value()
		return true
	})
	return out
}

func collectGauges(src *sync.Map) map[string]int64 {
	out := make(map[string]int64)
	src.Range(func(k, v any) bool {
		out[keyString(k)] = v.(*Gauge).Value()
		return true
	})
	return out
}

func keyString(k any) string {
	switch t := k.(type) {
	case string:
		return t
	case int:
		return strconv.Itoa(t)
	default:
		return fmt.Sprint(t)
	}
}

func writeLabeledCounters(w io.Writer, name, help, label string, values map[string]uint64) {
	if len(values) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for _, k := range sortedKeysU(values) {
		fmt.Fprintf(w, "%s{%s=%s} %d\n", name, label, quoteLabel(k), values[k])
	}
}

func writeLabeledGauges(w io.Writer, name, help, label string, values map[string]int64) {
	if len(values) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	for _, k := range sortedKeysI(values) {
		fmt.Fprintf(w, "%s{%s=%s} %d\n", name, label, quoteLabel(k), values[k])
	}
}

func sortedKeysU(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysI(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writeHistogram renders one Histogram as a prometheus histogram:
// cumulative bucket counts with le upper bounds following the log2
// bucket contract (bucket 0 -> le="1", bucket i -> le="2^i"), a +Inf
// bucket, then _sum and _count.
func writeHistogram(w io.Writer, name, help string, labels map[string]string, h *Histogram) {
	st := h.State()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := uint64(0)
	for i := 0; i < histBuckets-1; i++ {
		cum += st.Buckets[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, strconv.FormatUint(1<<uint(i), 10)), cum)
	}
	cum += st.Buckets[histBuckets-1]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, labelString(labels), h.sum.Load())
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labels), cum)
}

// bucketLabels merges the metric labels with the le bound.
func bucketLabels(labels map[string]string, le string) string {
	merged := make(map[string]string, len(labels)+1)
	for k, v := range labels {
		merged[k] = v
	}
	merged["le"] = le
	return labelString(merged)
}
