package obs

import (
	"fmt"
	"io"
	"strings"
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
// scrapers, served next to the JSON snapshot by Handler. It renders the
// same metric table as Snapshot: counters map to counter metrics,
// gauges to gauge metrics, and every Histogram to a prometheus
// histogram with cumulative log2 buckets (le="1", "2", "4", ...
// matching the histBuckets contract, plus +Inf). Each family is written
// once, as one group: a labeled family's samples, and each per-node
// family's, are sorted by label value.
//
// Like Snapshot it is a point-in-time read under traffic: values are
// individually atomic, not mutually consistent. Rendering takes no
// lock beyond the one summing the emission cells.
func WritePrometheus(w io.Writer, m *Metrics) {
	emissions, spans := m.emissionTotals()
	writeHeader(w, "perpos_spans_emitted_total", "Samples emitted across all instrumented graphs.", "counter")
	fmt.Fprintf(w, "perpos_spans_emitted_total %d\n", spans)
	for _, r := range m.table() {
		switch v := r.v.(type) {
		case *Counter:
			writeHeader(w, r.name, r.help, "counter")
			fmt.Fprintf(w, "%s %d\n", r.name, v.Value())
		case *Gauge:
			writeHeader(w, r.name, r.help, "gauge")
			fmt.Fprintf(w, "%s %d\n", r.name, v.Value())
		case *Histogram:
			writeHeader(w, r.name, r.help, "histogram")
			writeHistogram(w, r.name, "", v)
		case *family[Counter]:
			writeFamily(w, r, v, "counter", (*Counter).Value)
		case *family[Gauge]:
			writeFamily(w, r, v, "gauge", (*Gauge).Value)
		default:
			panic(fmt.Sprintf("obs: no exposition for %T", v))
		}
	}

	// Per-node families, each written once with its samples sorted by
	// node.
	ids := m.nodes.keys()
	if len(ids) == 0 {
		return
	}
	for _, f := range []struct {
		name, help string
		value      func(id string, nm *NodeMetrics) uint64
	}{
		{"perpos_node_emissions_total", "Samples emitted by the node.", func(id string, _ *NodeMetrics) uint64 { return emissions[id] }},
		{"perpos_node_errors_total", "Failed process/step outcomes.", func(_ string, nm *NodeMetrics) uint64 { return nm.Errors.Value() }},
		{"perpos_node_panics_total", "Contained panics.", func(_ string, nm *NodeMetrics) uint64 { return nm.Panics.Value() }},
		{"perpos_node_drops_total", "Gate-refused deliveries.", func(_ string, nm *NodeMetrics) uint64 { return nm.Drops.Value() }},
		{"perpos_node_restarts_total", "Source restarts.", func(_ string, nm *NodeMetrics) uint64 { return nm.Restarts.Value() }},
	} {
		writeHeader(w, f.name, f.help, "counter")
		for _, id := range ids {
			fmt.Fprintf(w, "%s{%s=%s} %d\n", f.name, m.nodes.label, quoteLabel(id), f.value(id, m.Node(id)))
		}
	}
	writeHeader(w, "perpos_node_process_ns", "Node process/step latency in nanoseconds (one call in 16 sampled).", "histogram")
	for _, id := range ids {
		writeHistogram(w, "perpos_node_process_ns", m.nodes.label+"="+quoteLabel(id), &m.Node(id).ProcessNs)
	}
}

// writeHeader writes a family's HELP and TYPE lines.
func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeFamily renders a labeled family, one sample per label value in
// sorted order; an empty family writes nothing.
func writeFamily[V any, N int64 | uint64](w io.Writer, r metric, f *family[V], typ string, value func(*V) N) {
	keys := f.keys()
	if len(keys) == 0 {
		return
	}
	writeHeader(w, r.name, r.help, typ)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=%s} %d\n", r.name, f.label, quoteLabel(k), value(f.get(k)))
	}
}

// writeHistogram renders one Histogram's samples: cumulative bucket
// counts with le upper bounds following the log2 bucket contract
// (bucket 0 -> le="1", bucket i -> le="2^i"), a +Inf bucket, then _sum
// and _count. label is the sample's other label pair, rendered
// (`node="gps"`), or empty.
func writeHistogram(w io.Writer, name, label string, h *Histogram) {
	tail, braced := "}", ""
	if label != "" {
		tail, braced = ","+label+"}", "{"+label+"}"
	}
	st := h.State()
	cum := uint64(0)
	for i := 0; i < histBuckets-1; i++ {
		cum += st.Buckets[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"%s %d\n", name, uint64(1)<<uint(i), tail, cum)
	}
	cum += st.Buckets[histBuckets-1]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"%s %d\n", name, tail, cum)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, braced, h.sum.Load())
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced, cum)
}
