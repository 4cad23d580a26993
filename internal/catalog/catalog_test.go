package catalog

import (
	"testing"
	"time"

	"perpos/examples/configs"
	"perpos/internal/building"
	"perpos/internal/config"
	"perpos/internal/core"
	"perpos/internal/filter"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/trace"
	"perpos/internal/transport"
	"perpos/internal/wifi"
)

var testOrigin = geo.Point{Lat: 56.1629, Lon: 10.2039}

func TestStandardRegistersBaseTypes(t *testing.T) {
	r, err := Standard(Deps{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Parser", "Interpreter", "Segmenter", "ModeClassifier", "HMMSmoother"} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("missing registration %q", name)
		}
	}
	// Dependent types absent without deps.
	if _, ok := r.Lookup("Resolver"); ok {
		t.Error("Resolver registered without a building")
	}
	if _, ok := r.Lookup("WiFiPositioning"); ok {
		t.Error("WiFiPositioning registered without a database")
	}
}

func TestStandardWithDeps(t *testing.T) {
	b := building.Evaluation()
	n := wifi.DefaultDeployment(b)
	db := wifi.Survey(n, 0, wifi.SurveyConfig{Seed: 1, GridStep: 4})
	r, err := Standard(Deps{Building: b, Database: db})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Resolver", "ParticleFilter", "WiFiPositioning"} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("missing registration %q", name)
		}
	}
}

// TestAssembleGPSPipeline: sensor + app, catalog fills the middle.
func TestAssembleGPSPipeline(t *testing.T) {
	r, err := Standard(Deps{})
	if err != nil {
		t.Fatal(err)
	}
	g := core.New()
	tr := trace.OutdoorTrack(testOrigin, 2, 2, 100, 1.4, time.Second)
	if _, err := g.Add(gps.NewReceiver("gps", tr, gps.Config{Seed: 3, ColdStart: time.Second})); err != nil {
		t.Fatal(err)
	}
	sink := core.NewSink("app", []core.Kind{positioning.KindPosition})
	if _, err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	created, err := r.Resolve(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 2 {
		t.Fatalf("created %v, want Parser + Interpreter", created)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Error("assembled pipeline delivered nothing")
	}
}

// TestAssembleTransportPipeline: a mode-consuming app pulls the whole
// seven-component reasoning chain out of the catalog.
func TestAssembleTransportPipeline(t *testing.T) {
	r, err := Standard(Deps{})
	if err != nil {
		t.Fatal(err)
	}
	g := core.New()
	tr := trace.Multimodal(testOrigin, 4, time.Second)
	if _, err := g.Add(gps.NewReceiver("gps", tr, gps.Config{Seed: 5, ColdStart: time.Second})); err != nil {
		t.Fatal(err)
	}
	sink := core.NewSink("app", []core.Kind{transport.KindMode})
	if _, err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	created, err := r.Resolve(g)
	if err != nil {
		t.Fatal(err)
	}
	// HMM (or classifier) <- features <- segmenter <- interpreter <-
	// parser: 5 or 6 instantiations depending on which mode producer is
	// chosen first.
	if len(created) < 5 {
		t.Fatalf("created %v", created)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Error("assembled transport pipeline delivered nothing")
	}
	if _, ok := sink.Received()[0].Payload.(transport.ModeEstimate); !ok {
		t.Errorf("payload = %T", sink.Received()[0].Payload)
	}
}

// TestFusionBlueprint: the Fig. 2 blueprint that rules-fusion.json
// resolves to through Standard instantiates into independent per-target
// pipelines over shared immutable deps.
func TestFusionBlueprint(t *testing.T) {
	b := building.Evaluation()
	n := wifi.DefaultDeployment(b)
	db := wifi.Survey(n, 0, wifi.SurveyConfig{Seed: 1, GridStep: 4})
	reg, err := Standard(Deps{Building: b, Database: db})
	if err != nil {
		t.Fatal(err)
	}
	p, err := configs.Load("rules-fusion.json")
	if err != nil {
		t.Fatal(err)
	}
	loader := &config.Loader{
		Registry: reg,
		Features: map[string]func() core.Feature{"hdop": func() core.Feature { return gps.NewHDOPFeature() }},
	}
	bp, err := loader.Blueprint(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := bp.Placeholders(); len(got) != 3 {
		t.Fatalf("Placeholders = %v, want [gps wifi app]", got)
	}

	for i := int64(0); i < 2; i++ {
		tr := trace.CorridorWalk(b, 10+i, 3, time.Second)
		sink := core.NewSink("app", []core.Kind{positioning.KindPosition})
		g, err := bp.Instantiate(
			core.WithComponentOverride("gps", func(id string) core.Component {
				return gps.NewReceiver(id, tr, gps.Config{Seed: 20 + i, ColdStart: time.Second})
			}),
			core.WithComponentOverride("wifi", func(id string) core.Component {
				return wifi.NewSensor(id, n, tr, 2*time.Second, 30+i)
			}),
			core.WithComponentOverride("particle-filter", func(id string) core.Component {
				return filter.NewParticleFilter(id, b, filter.Config{Particles: 100, Seed: 2})
			}),
			core.WithComponentOverride("app", func(id string) core.Component { return sink }),
		)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		parserNode, _ := g.Node("parser")
		if !parserNode.HasCapability(gps.FeatureHDOP) {
			t.Fatalf("instance %d: parser missing HDOP feature", i)
		}
		if _, err := g.Run(0); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if sink.Len() == 0 {
			t.Errorf("instance %d delivered nothing", i)
		}
	}
}

// TestGPSBlueprint: the lean GPS chain blueprint drives a position
// stream per instance.
func TestGPSBlueprint(t *testing.T) {
	bp, err := GPSBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.OutdoorTrack(testOrigin, 2, 2, 100, 1.4, time.Second)
	sink := core.NewSink("app", []core.Kind{positioning.KindPosition})
	g, err := bp.Instantiate(
		core.WithComponentOverride("gps", func(id string) core.Component {
			return gps.NewReceiver(id, tr, gps.Config{Seed: 3, ColdStart: time.Second})
		}),
		core.WithComponentOverride("app", func(id string) core.Component { return sink }),
	)
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
		t.Error("GPS blueprint instance delivered nothing")
	}
}

// TestAssembleRoomPipeline: room-consuming app + wifi sensor: the
// catalog supplies the positioning engine and resolver.
func TestAssembleRoomPipeline(t *testing.T) {
	b := building.Evaluation()
	n := wifi.DefaultDeployment(b)
	db := wifi.Survey(n, 0, wifi.SurveyConfig{Seed: 6})
	r, err := Standard(Deps{Building: b, Database: db})
	if err != nil {
		t.Fatal(err)
	}

	g := core.New()
	tr := trace.CorridorWalk(b, 7, 3, time.Second)
	if _, err := g.Add(wifi.NewSensor("wifi", n, tr, 2*time.Second, 8)); err != nil {
		t.Fatal(err)
	}
	sink := core.NewSink("app", []core.Kind{positioning.KindRoom})
	if _, err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(g); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Error("assembled room pipeline delivered nothing")
	}
}
