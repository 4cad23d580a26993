package config

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perpos/internal/core"
	"perpos/internal/registry"
)

// FuzzParsePipeline feeds arbitrary bytes through the full declarative
// surface: Parse, then every definition-to-runtime conversion a loaded
// pipeline can trigger (rules, supervision, chaos). The
// contract under fuzz: no panics, and every rejection is a typed error
// — a malformed config must never take down a process that loads it.
func FuzzParsePipeline(f *testing.F) {
	// Seed with the shipped example configs plus targeted hostile cases;
	// the checked-in corpus under testdata/fuzz extends this set.
	examples, _ := filepath.Glob("../../examples/configs/*.json")
	for _, path := range examples {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, seed := range []string{
		``,
		`{}`,
		`{"rules": {"rules": [{}]}}`,
		`{"rules": {"rules": [{"name": "r", "when": {"signal": "attr:", "op": ">"}, "action": {"kind": "swap"}}]}}`,
		`{"rules": {"rules": [{"name": "r", "when": {"signal": "attr:x@", "op": "≥", "value": 1e308}, "action": {"kind": "insert", "component": {"id": "", "type": ""}}}]}}`,
		`{"supervision": {"reroutes": [{"watch": ""}]}, "rules": {"rules": []}}`,
		`{"rollout": {"canary_fraction": -1, "max_p99_ms": -5}}`,
		`{"name": "\n\"", "components": [{"id": "a"}], "connections": [{"from": "a", "to": "a", "port": -1}]}`,
	} {
		f.Add([]byte(seed))
	}

	// A tiny registry so insert actions can resolve without dragging the
	// whole catalog (and its building geometry) into every fuzz exec.
	reg := &registry.Registry{}
	if err := reg.Register(registry.Registration{
		Name: "Pass",
		Spec: core.Spec{Name: "Pass", Inputs: []core.PortSpec{{Name: "in", Accepts: []core.Kind{"k"}}}, Output: core.OutputSpec{Kind: "k"}},
		New: func(id string) core.Component {
			return core.NewTransform(id, "k", "k", func(s core.Sample) (core.Sample, bool) { return s, true })
		},
	}); err != nil {
		f.Fatal(err)
	}
	l := &Loader{
		Registry: reg,
		Features: map[string]func() core.Feature{"f": func() core.Feature { return nil }},
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := Parse(strings.NewReader(string(raw)))
		if err != nil {
			return // malformed JSON or unknown fields: rejected cleanly
		}
		if _, err := l.Rules(p.Rules); err != nil && !errors.Is(err, ErrBadRule) {
			t.Fatalf("Rules error not wrapped in ErrBadRule: %v", err)
		}
		if p.Supervision != nil {
			_ = p.Supervision.Policy()
			_ = p.Supervision.HealthReroutes()
		}
		if p.Chaos != nil {
			_ = p.Chaos.Schedule()
		}
		if p.Checkpoint != nil {
			_ = p.Checkpoint.Every()
		}
	})
}
