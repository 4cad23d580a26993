package config

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"perpos/internal/building"
	"perpos/internal/catalog"
	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

var testOrigin = geo.Point{Lat: 56.1629, Lon: 10.2039}

// fig1JSON is the GPS half of Fig. 1 as a system-level configuration,
// with the satellite feature attached declaratively.
const fig1JSON = `{
  "name": "fig1-gps",
  "components": [
    {"id": "gps"},
    {"id": "parser", "type": "Parser"},
    {"id": "interpreter", "type": "Interpreter"},
    {"id": "app"}
  ],
  "connections": [
    {"from": "gps", "to": "parser", "port": 0},
    {"from": "parser", "to": "interpreter", "port": 0},
    {"from": "interpreter", "to": "app", "port": 0}
  ],
  "features": [
    {"component": "parser", "feature": "satellites"}
  ]
}`

// newLoader returns a loader over the standard registry, whose
// Instances hold the stand-ins a resolution probe needs for the gps and
// app placeholders, and a sink to bind as app with bindings.
func newLoader(t *testing.T) (*Loader, *core.Sink) {
	t.Helper()
	reg, err := catalog.Standard(catalog.Deps{Building: building.Evaluation()})
	if err != nil {
		t.Fatal(err)
	}
	sink := core.NewSink("app", []core.Kind{positioning.KindPosition})
	return &Loader{
		Registry: reg,
		Instances: map[string]core.Component{
			"gps": newReceiver("gps"),
			"app": core.NewSink("app", []core.Kind{positioning.KindPosition}),
		},
		Features: map[string]func() core.Feature{
			"satellites": func() core.Feature { return gps.NewSatellitesFeature() },
			"hdop":       func() core.Feature { return gps.NewHDOPFeature() },
		},
	}, sink
}

// newReceiver is the test's GPS source: a receiver on an outdoor track.
func newReceiver(id string) core.Component {
	tr := trace.OutdoorTrack(testOrigin, 1, 2, 100, 1.4, time.Second)
	return gps.NewReceiver(id, tr, gps.Config{Seed: 2, ColdStart: time.Second})
}

// bindings binds the gps and app placeholders, where a blueprint has
// them: a fresh receiver per instance, and sink as the app.
func bindings(sink *core.Sink) []core.InstantiateOption {
	return []core.InstantiateOption{
		core.WithOptionalOverride("gps", newReceiver),
		core.WithOptionalOverride("app", func(string) core.Component { return sink }),
	}
}

// instantiate makes one graph of p the way every caller does: the
// loader's blueprint, instantiated with bindings(sink).
func instantiate(l *Loader, p Pipeline, sink *core.Sink) (*core.Graph, error) {
	bp, err := l.Blueprint(p)
	if err != nil {
		return nil, err
	}
	return bp.Instantiate(bindings(sink)...)
}

func TestParseAndBuildFig1(t *testing.T) {
	p, err := Parse(strings.NewReader(fig1JSON))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "fig1-gps" || len(p.Components) != 4 || len(p.Connections) != 3 {
		t.Fatalf("parsed = %+v", p)
	}

	loader, sink := newLoader(t)
	g, err := instantiate(loader, p, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The declaratively attached feature is live.
	parserNode, _ := g.Node("parser")
	if !parserNode.HasCapability(gps.FeatureSatellites) {
		t.Error("satellites feature not attached")
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Error("configured pipeline delivered nothing")
	}
	for _, s := range sink.Received() {
		if _, ok := s.IntAttr(gps.AttrSatellites); !ok {
			t.Error("positions missing the feature-attached satellite count")
			break
		}
	}
}

func TestBuildWithResolution(t *testing.T) {
	// Only endpoints declared; `resolve` fills the middle from the
	// registry.
	const partial = `{
      "name": "partial",
      "components": [{"id": "gps"}, {"id": "app"}],
      "connections": [],
      "resolve": true
    }`
	p, err := Parse(strings.NewReader(partial))
	if err != nil {
		t.Fatal(err)
	}
	loader, sink := newLoader(t)
	g, err := instantiate(loader, p, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Error("resolved pipeline delivered nothing")
	}
}

func TestBlueprintFromPipeline(t *testing.T) {
	p, err := Parse(strings.NewReader(fig1JSON))
	if err != nil {
		t.Fatal(err)
	}
	loader, _ := newLoader(t)
	bp, err := loader.Blueprint(p)
	if err != nil {
		t.Fatal(err)
	}

	// Two independent instances from one declaration.
	for i := 0; i < 2; i++ {
		sink := core.NewSink("app", []core.Kind{positioning.KindPosition})
		g, err := bp.Instantiate(bindings(sink)...)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		parserNode, _ := g.Node("parser")
		if !parserNode.HasCapability(gps.FeatureSatellites) {
			t.Fatalf("instance %d: satellites feature not attached", i)
		}
		if _, err := g.Run(0); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if sink.Len() == 0 {
			t.Fatalf("instance %d delivered nothing", i)
		}
	}
}

func TestBlueprintResolutionRunsOnce(t *testing.T) {
	// Only endpoints declared; resolution fills the middle ONCE, into
	// the blueprint — every instance replays the resolved structure.
	const partial = `{
	  "name": "partial",
	  "components": [{"id": "gps"}, {"id": "app"}],
	  "connections": [],
	  "resolve": true
	}`
	p, err := Parse(strings.NewReader(partial))
	if err != nil {
		t.Fatal(err)
	}
	loader, sink := newLoader(t)
	bp, err := loader.Blueprint(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(bp.Components()); got <= 2 {
		t.Fatalf("blueprint has %d components, want endpoints plus resolved chain", got)
	}

	// The resolved blueprint matches what the resolver makes of a
	// hand-built probe: the same components in the same order, and the
	// same edges.
	reference := core.New()
	for _, c := range []core.Component{newReceiver("gps"), core.NewSink("app", []core.Kind{positioning.KindPosition})} {
		if _, err := reference.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := loader.Registry.Resolve(reference); err != nil {
		t.Fatal(err)
	}
	g, err := bp.Instantiate(bindings(sink)...)
	if err != nil {
		t.Fatal(err)
	}
	nodeIDs := func(g *core.Graph) []string {
		var ids []string
		for _, n := range g.Nodes() {
			ids = append(ids, n.ID())
		}
		return ids
	}
	if got, want := nodeIDs(g), nodeIDs(reference); !reflect.DeepEqual(got, want) {
		t.Errorf("instance components = %v, resolved probe has %v", got, want)
	}
	if got, want := g.Edges(), reference.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("instance edges = %v, resolved probe has %v", got, want)
	}

	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Error("resolved blueprint instance delivered nothing")
	}

	// A second instance is independent and works too.
	g2, err := bp.Instantiate(bindings(core.NewSink("app", []core.Kind{positioning.KindPosition}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestBlueprintPlaceholders(t *testing.T) {
	// Untyped defs become placeholders bound at instantiation time —
	// the runtime's per-target source hook.
	p, err := Parse(strings.NewReader(fig1JSON))
	if err != nil {
		t.Fatal(err)
	}
	loader, _ := newLoader(t)
	bp, err := loader.Blueprint(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := bp.Placeholders(); len(got) != 2 {
		t.Fatalf("Placeholders = %v, want [gps app]", got)
	}
	if _, err := bp.Instantiate(); !errors.Is(err, core.ErrOverrideRequired) {
		t.Fatalf("Instantiate without overrides = %v, want ErrOverrideRequired", err)
	}
	tr := trace.OutdoorTrack(testOrigin, 1, 2, 100, 1.4, time.Second)
	sink := core.NewSink("app", []core.Kind{positioning.KindPosition})
	g, err := bp.Instantiate(
		core.WithComponentOverride("gps", func(id string) core.Component {
			return gps.NewReceiver(id, tr, gps.Config{Seed: 2, ColdStart: time.Second})
		}),
		core.WithComponentOverride("app", func(id string) core.Component { return sink }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Error("placeholder-bound instance delivered nothing")
	}
}

func TestBuildErrors(t *testing.T) {
	loader, sink := newLoader(t)

	tests := []struct {
		name string
		json string
		want error
	}{
		{
			"unknown type",
			`{"components": [{"id": "x", "type": "Nope"}]}`,
			ErrUnknownType,
		},
		{
			// An untyped def is a placeholder: the blueprint takes it, and
			// an instantiation that binds nothing to it fails.
			"unknown instance",
			`{"components": [{"id": "ghost"}]}`,
			core.ErrOverrideRequired,
		},
		{
			// Resolution probes every placeholder through a stand-in.
			"unknown instance to resolve",
			`{"components": [{"id": "ghost"}], "resolve": true}`,
			ErrUnknownInstance,
		},
		{
			"unknown feature",
			`{"components": [{"id": "gps"}], "features": [{"component": "gps", "feature": "warp"}]}`,
			ErrUnknownFeature,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := Parse(strings.NewReader(tt.json))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := instantiate(loader, p, sink); !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}

	t.Run("bad connection", func(t *testing.T) {
		p, err := Parse(strings.NewReader(
			`{"components": [{"id": "gps"}, {"id": "app"}],
			  "connections": [{"from": "gps", "to": "app", "port": 5}]}`))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := instantiate(loader, p, sink); err == nil {
			t.Error("bad port accepted")
		}
	})

	t.Run("unknown json field", func(t *testing.T) {
		if _, err := Parse(strings.NewReader(`{"nope": 1}`)); err == nil {
			t.Error("unknown field accepted")
		}
	})

	t.Run("resolution without registry", func(t *testing.T) {
		l := &Loader{Instances: loader.Instances}
		p := Pipeline{Components: []ComponentDef{{ID: "gps"}}, Resolve: true}
		if _, err := instantiate(l, p, sink); err == nil {
			t.Error("resolution without registry accepted")
		}
	})
}

// TestParseRejectsDeletedKeys: keys the schema no longer has are
// unknown fields, so a definition that still carries one fails to parse
// rather than silently losing the setting.
func TestParseRejectsDeletedKeys(t *testing.T) {
	rule := `{"name": "r", "when": {"signal": "attr:hdop", "op": ">", "value": 4}, %s,
	  "action": {"kind": "insert", "component": {"id": "f", "type": "HDOPFilter"}, "at": {"from": "a", "to": "b", "port": 0}%s}}`
	for key, def := range map[string]string{
		"cluster":            `{"cluster": {"nodes": 3}}`,
		"deadline_ms":        `{"supervision": {"deadline_ms": 1000}}`,
		"recovery_emissions": `{"supervision": {"recovery_emissions": 2}}`,
		"max_restarts":       `{"supervision": {"restart": {"max_restarts": 5}}}`,
		"multiplier":         `{"supervision": {"restart": {"multiplier": 3}}}`,
		"max_flaps":          `{"rules": {"rules": [` + fmt.Sprintf(rule, `"max_flaps": 4`, "") + `]}}`,
		"flap_window_ms":     `{"rules": {"rules": [` + fmt.Sprintf(rule, `"flap_window_ms": 5000`, "") + `]}}`,
		"quarantine_ms":      `{"rules": {"rules": [` + fmt.Sprintf(rule, `"quarantine_ms": 10000`, "") + `]}}`,
		"in_port":            `{"rules": {"rules": [` + fmt.Sprintf(rule, `"priority": 1`, `, "in_port": 1`) + `]}}`,
		"resolve":            `{"revisions": [{"components": [], "connections": [], "resolve": true}]}`,
	} {
		_, err := Parse(strings.NewReader(def))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown field %q", key)) {
			t.Errorf("%s: Parse error = %v, want an unknown field", key, err)
		}
	}
}
