package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"perpos/internal/core"
)

// Label values must be escaped per the Prometheus exposition format:
// backslash, double quote and newline get backslash escapes — and
// nothing else does. strconv.Quote-style \t or \xNN escapes are
// invalid exposition and must not appear.
func TestPrometheusLabelEscaping(t *testing.T) {
	m := New()
	hostile := "node\"with\\every\nhostile\tbyte\x01é"
	NewGraphObserver(m, nil).Tap(hostile, core.Sample{})
	m.ProviderTransition("state\"q\\b\nnl")

	var b strings.Builder
	WritePrometheus(&b, m)
	out := b.String()

	// The three escapable bytes come out escaped...
	if !strings.Contains(out, `node="node\"with\\every\nhostile`) {
		t.Fatalf("node label not escaped correctly:\n%s", out)
	}
	if !strings.Contains(out, `state="state\"q\\b\nnl"`) {
		t.Fatalf("state label not escaped correctly:\n%s", out)
	}
	// ...while tab, control bytes and UTF-8 pass through raw: a \t or
	// \x escape sequence would be read back literally by a scraper.
	if strings.Contains(out, `\t`) || strings.Contains(out, `\x01`) {
		t.Fatalf("over-escaped label value (invalid exposition):\n%s", out)
	}
	if !strings.Contains(out, "hostile\tbyte\x01é") {
		t.Fatalf("tab/control/UTF-8 bytes must pass through raw:\n%s", out)
	}
	// No label value may leak an unescaped newline: every exposition
	// line must be a complete sample or comment.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition (unescaped newline leaked):\n%s", out)
		}
	}
}

func TestRulesCountersExposed(t *testing.T) {
	m := New()
	m.RulesEngaged.Add(3)
	m.RulesDisengaged.Add(2)
	m.RulesQuarantined.Inc()
	m.RulesRolledBack.Inc()
	m.RulesDeferred.Add(5)

	var b strings.Builder
	WritePrometheus(&b, m)
	out := b.String()
	for _, want := range []string{
		"perpos_rules_engaged_total 3",
		"perpos_rules_disengaged_total 2",
		"perpos_rules_quarantined_total 1",
		"perpos_rules_rolled_back_total 1",
		"perpos_rules_deferred_total 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}

	// The JSON snapshot carries the same families.
	raw, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	rules, ok := snap["rules"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot has no rules section: %v", snap)
	}
	if rules["engaged"].(float64) != 3 || rules["deferred"].(float64) != 5 {
		t.Fatalf("rules snapshot wrong: %v", rules)
	}
}
