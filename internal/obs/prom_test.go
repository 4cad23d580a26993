package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheusCoversMetricFamilies(t *testing.T) {
	m := New()
	m.SessionsCreated.Add(3)
	m.SessionsLive.Inc()
	m.RevisionLive(1).Add(5)
	m.RevisionLive(2).Add(2)
	m.RolloutsStarted.Inc()
	m.RolloutUpgraded.Add(7)
	m.ProviderTransition("AVAILABLE")
	tapN(NewGraphObserver(m, nil), "gps", 10)
	m.Node("gps").ProcessNs.ObserveDuration(3 * time.Microsecond)
	m.CheckpointAppend("s", 128, 2*time.Millisecond, nil)
	m.ObserveTreeDepth(4)
	m.ClusterPumpErrors.Add(2)

	var b strings.Builder
	WritePrometheus(&b, m)
	out := b.String()

	for _, want := range []string{
		"# TYPE perpos_spans_emitted_total counter",
		"perpos_spans_emitted_total 10",
		"perpos_sessions_created_total 3",
		"perpos_sessions_live 1",
		"# TYPE perpos_revision_sessions_live gauge",
		`perpos_revision_sessions_live{revision="1"} 5`,
		`perpos_revision_sessions_live{revision="2"} 2`,
		"perpos_rollouts_started_total 1",
		"perpos_rollout_sessions_upgraded_total 7",
		`perpos_provider_transitions_total{state="AVAILABLE"} 1`,
		`perpos_node_emissions_total{node="gps"} 10`,
		"# TYPE perpos_node_process_ns histogram",
		`perpos_node_process_ns_bucket{le="+Inf",node="gps"} 1`,
		`perpos_node_process_ns_count{node="gps"} 1`,
		"perpos_checkpoint_writes_total 1",
		"perpos_checkpoint_bytes_total 128",
		"# TYPE perpos_checkpoint_write_ns histogram",
		"perpos_tree_depth_sum 4",
		"# TYPE perpos_cluster_pump_errors_total counter",
		"perpos_cluster_pump_errors_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestPrometheusHistogramCumulative checks the le buckets are
// cumulative and bounded by powers of two per the histBuckets contract.
func TestPrometheusHistogramCumulative(t *testing.T) {
	m := New()
	// Values 1, 2, 3, 8: buckets 0 (<=1), 1 (<=2), 2 (<=4), 3 (<=8).
	for _, v := range []int64{1, 2, 3, 8} {
		m.TreeDepth.Observe(v)
	}
	var b strings.Builder
	WritePrometheus(&b, m)
	out := b.String()
	for _, want := range []string{
		`perpos_tree_depth_bucket{le="1"} 1`,
		`perpos_tree_depth_bucket{le="2"} 2`,
		`perpos_tree_depth_bucket{le="4"} 3`,
		`perpos_tree_depth_bucket{le="8"} 4`,
		`perpos_tree_depth_bucket{le="+Inf"} 4`,
		"perpos_tree_depth_count 4",
		"perpos_tree_depth_sum 14",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram exposition missing %q\n%s", want, out)
		}
	}
}

func TestPrometheusEndpoints(t *testing.T) {
	m := New()
	tapN(NewGraphObserver(m, nil), "gps", 9)
	srv, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, path := range []string{"/metrics?format=prom", "/metrics/prom"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("%s Content-Type = %q, want text/plain", path, ct)
		}
		if !strings.Contains(string(body), "perpos_spans_emitted_total 9") {
			t.Fatalf("%s missing counter:\n%s", path, body)
		}
	}

	// The JSON endpoint still serves JSON.
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics Content-Type = %q, want application/json", ct)
	}
}
