package obs

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// populateHub sets every hub metric, with two nodes and two label
// values per labeled family, to a value of its own.
func populateHub(m *Metrics) {
	o := NewGraphObserver(m, nil)
	tapN(o, "gps", 7)
	tapN(o, "parser", 5)
	closed := NewGraphObserver(m, nil)
	tapN(closed, "gps", 2)
	closed.Close()
	for i, id := range []string{"gps", "parser"} {
		nm := m.Node(id)
		nm.Errors.Add(uint64(i + 1))
		nm.Panics.Add(uint64(i))
		nm.Drops.Add(uint64(2*i + 1))
		nm.Restarts.Add(uint64(i + 2))
		nm.ProcessNs.Observe(int64(1000 * (i + 1)))
		nm.ProcessNs.Observe(int64(30000 * (i + 1)))
	}
	m.SpansDropped.Add(4)
	m.SessionsCreated.Add(9)
	m.SessionsEvicted.Add(3)
	m.SessionsResumed.Add(2)
	m.SessionsLive.Add(8)
	m.SupervisorEngaged.Add(5)
	m.SupervisorDisengaged.Add(4)
	m.CheckpointAppend("s", 128, 2*time.Millisecond, nil)
	m.CheckpointAppend("s", 64, 3*time.Millisecond, nil)
	m.CheckpointAppend("s", 0, 0, errors.New("boom"))
	m.RolloutsStarted.Add(3)
	m.RolloutsCompleted.Add(2)
	m.RolloutsRolledBack.Add(1)
	m.RolloutUpgraded.Add(40)
	m.RolloutReverted.Add(6)
	m.RolloutFailed.Add(1)
	m.RevisionLive(1).Add(2)
	m.RevisionLive(2).Add(4)
	m.RevisionLive(10).Add(2)
	m.ProviderTransition("AVAILABLE")
	m.ProviderTransition("AVAILABLE")
	m.ProviderTransition("OUT_OF_SERVICE")
	m.ClusterHandoffs.Add(12)
	m.ClusterHandoffFailed.Add(1)
	m.ClusterFailovers.Add(2)
	m.ClusterResurrected.Add(7)
	m.ClusterRebalanced.Add(5)
	m.ClusterStaleServed.Add(3)
	m.ClusterPumpErrors.Add(2)
	m.ClusterHandoffNs.ObserveDuration(4 * time.Millisecond)
	m.ClusterNodeSessions("n1").Add(3)
	m.ClusterNodeSessions("n2").Add(5)
	m.ClusterNodeUp("n1").Set(1)
	m.ClusterNodeUp("n2").Set(0)
	m.RulesEngaged.Add(6)
	m.RulesDisengaged.Add(5)
	m.RulesQuarantined.Add(1)
	m.RulesRolledBack.Add(2)
	m.RulesDeferred.Add(3)
	m.ObserveTreeDepth(3)
	m.ObserveTreeDepth(5)
}

// TestExportersMatchGolden pins both exporters for a fully populated
// two-node hub against testdata/hub.json and testdata/hub.prom. The
// golden files hold what the earlier, hand-written Snapshot and
// WritePrometheus rendered for this hub, less the per-shard
// live-session gauges (and the "across all shards" in the
// sessions_live help) that went with the manager's shards. That
// exposition wrote the per-node families once per node; regroup folds
// it into one group per family, the only other difference.
func TestExportersMatchGolden(t *testing.T) {
	m := New()
	populateHub(m)

	gotJSON, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := os.ReadFile("testdata/hub.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON)+"\n" != string(wantJSON) {
		t.Errorf("Snapshot differs from testdata/hub.json:\n%s", gotJSON)
	}

	var b strings.Builder
	WritePrometheus(&b, m)
	golden, err := os.ReadFile("testdata/hub.prom")
	if err != nil {
		t.Fatal(err)
	}
	if want := regroup(string(golden)); b.String() != want {
		t.Errorf("WritePrometheus differs from regrouped testdata/hub.prom:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// regroup gathers an exposition's lines by family, in the order the
// families first appear, keeping each family's first HELP and TYPE
// line. A line belongs to the family of the HELP line above it.
func regroup(expo string) string {
	var order []string
	lines := make(map[string][]string)
	fam := ""
	for _, line := range strings.SplitAfter(expo, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			fam = strings.Fields(line)[2]
		}
		if _, seen := lines[fam]; !seen {
			order = append(order, fam)
		} else if strings.HasPrefix(line, "# ") && slices.Contains(lines[fam], line) {
			continue
		}
		lines[fam] = append(lines[fam], line)
	}
	var out strings.Builder
	for _, f := range order {
		out.WriteString(strings.Join(lines[f], ""))
	}
	return out.String()
}

// TestPrometheusFamiliesGrouped walks the exposition of a two-node hub:
// the text format allows one HELP and one TYPE line per family, ahead
// of its samples, and needs a family's lines as one group.
func TestPrometheusFamiliesGrouped(t *testing.T) {
	m := New()
	populateHub(m)
	var b strings.Builder
	WritePrometheus(&b, m)

	types := make(map[string]string)
	helps := make(map[string]int)
	samples := make(map[string]int)
	ended := make(map[string]bool)
	cur := ""
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		var fam string
		switch {
		case strings.HasPrefix(line, "# HELP "):
			fam = strings.Fields(line)[2]
			helps[fam]++
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			fam = f[2]
			if _, dup := types[fam]; dup {
				t.Errorf("second TYPE line for %s", fam)
			}
			if helps[fam] == 0 {
				t.Errorf("TYPE line for %s before its HELP line", fam)
			}
			types[fam] = f[3]
		default:
			name, _, _ := strings.Cut(line, " ")
			name, _, _ = strings.Cut(name, "{")
			fam = name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
					fam = base
				}
			}
			if types[fam] == "" {
				t.Errorf("sample %q ahead of its family's TYPE line", line)
			}
			samples[fam]++
		}
		if fam != cur {
			if ended[fam] {
				t.Errorf("family %s is split into more than one group", fam)
			}
			ended[cur] = true
			cur = fam
		}
	}
	for fam, n := range helps {
		if n != 1 {
			t.Errorf("%d HELP lines for %s, want 1", n, fam)
		}
	}
	// Two nodes: a sample each per counter family, and a bucket series,
	// _sum and _count each per histogram.
	for _, fam := range []string{"perpos_node_emissions_total", "perpos_node_errors_total", "perpos_node_panics_total", "perpos_node_drops_total", "perpos_node_restarts_total"} {
		if samples[fam] != 2 {
			t.Errorf("%s has %d samples, want 2", fam, samples[fam])
		}
	}
	if want := 2 * (histBuckets + 2); samples["perpos_node_process_ns"] != want {
		t.Errorf("perpos_node_process_ns has %d samples, want %d", samples["perpos_node_process_ns"], want)
	}
}
