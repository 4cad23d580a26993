package perpos_test

import (
	"testing"
	"time"

	"perpos/internal/building"
	"perpos/internal/core"
	"perpos/internal/eval"
	"perpos/internal/filter"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

// TestFullFusionSystem runs the complete Fig. 2 system — GPS and WiFi
// pipelines fused by the particle filter, with the HDOP Component
// Feature and Likelihood Channel Feature installed — and checks the
// whole stack top to bottom: the Positioning Layer provider delivers
// room-annotated positions, the channel feature is reachable from the
// top layer, and the fused estimate tracks the ground truth.
func TestFullFusionSystem(t *testing.T) {
	g, layer, pf, provider, err := eval.BuildFig2(900)
	if err != nil {
		t.Fatal(err)
	}
	defer layer.Close()

	var delivered []positioning.Position
	cancel := provider.Subscribe(func(pos positioning.Position) {
		delivered = append(delivered, pos)
	})
	defer cancel()

	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}

	if len(delivered) < 50 {
		t.Fatalf("provider delivered %d positions", len(delivered))
	}

	// Pull semantics agree with push.
	last, ok := provider.Last()
	if !ok || !last.Time.Equal(delivered[len(delivered)-1].Time) {
		t.Errorf("Last() = %+v, disagrees with final push", last)
	}

	// The top layer reaches the channel feature installed below.
	f, ok := provider.Feature(filter.FeatureLikelihood)
	if !ok {
		t.Fatal("likelihood feature not reachable from the Positioning Layer")
	}
	if _, ok := f.(filter.Likelihood); !ok {
		t.Fatalf("feature %T does not implement Likelihood", f)
	}

	// Most fused estimates resolve to a room (the walk is indoors).
	withRoom := 0
	for _, pos := range delivered {
		if pos.RoomID != "" {
			withRoom++
		}
		if pos.Source != "particle-filter" {
			t.Fatalf("position source = %q", pos.Source)
		}
	}
	if frac := float64(withRoom) / float64(len(delivered)); frac < 0.9 {
		t.Errorf("only %.0f%% of fused positions carry a room", frac*100)
	}

	// The filter's population is alive and legal.
	if len(pf.Particles()) == 0 {
		t.Error("empty particle population after the run")
	}
}

// TestReadmeQuickstartSnippet keeps the README's minimal-pipeline code
// honest: the exact wiring shown there must build and deliver.
func TestReadmeQuickstartSnippet(t *testing.T) {
	b := building.Evaluation()
	groundTruth := trace.Commute(b, 1, 100, time.Second)

	g := core.New()
	mustAdd := func(c core.Component) {
		t.Helper()
		if _, err := g.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(gps.NewReceiver("gps", groundTruth, gps.Config{}))
	mustAdd(gps.NewParser("parser"))
	mustAdd(gps.NewInterpreter("interpreter", 0))
	provider := positioning.NewProvider("gps", positioning.ProviderInfo{Technology: "gps"}, nil)
	mustAdd(positioning.NewProviderSink("app", provider))
	for _, e := range []struct{ from, to string }{
		{"gps", "parser"}, {"parser", "interpreter"}, {"interpreter", "app"},
	} {
		if err := g.Connect(e.from, e.to, 0); err != nil {
			t.Fatal(err)
		}
	}

	count := 0
	cancel := provider.Subscribe(func(positioning.Position) { count++ })
	defer cancel()
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("quickstart pipeline delivered nothing")
	}

	// The README's §3.1 adaptation snippet.
	parserNode, _ := g.Node("parser")
	if err := parserNode.AttachFeature(gps.NewSatellitesFeature()); err != nil {
		t.Fatal(err)
	}
	if err := g.InsertBetween(gps.NewSatelliteFilter("satfilter", 6),
		"parser", "interpreter", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTrackingServiceEndToEnd exercises the Positioning Layer's target
// tracking and k-nearest queries over two live pipelines.
func TestTrackingServiceEndToEnd(t *testing.T) {
	b := building.Evaluation()
	manager := &positioning.Manager{}

	startTarget := func(name string, seed int64) {
		t.Helper()
		tr := trace.CorridorWalk(b, seed, 3, time.Second)
		provider := positioning.NewProvider(name, positioning.ProviderInfo{Technology: "gps"}, nil)
		if err := manager.Register(provider); err != nil {
			t.Fatal(err)
		}
		target, err := manager.Track(name)
		if err != nil {
			t.Fatal(err)
		}
		target.Attach(provider)

		g := core.New()
		for _, c := range []core.Component{
			gps.NewReceiver("gps", tr, gps.Config{Seed: seed, ColdStart: time.Second}),
			gps.NewParser("parser"),
			gps.NewInterpreter("interpreter", 0),
			positioning.NewProviderSink("app", provider),
		} {
			if _, err := g.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range []struct{ from, to string }{
			{"gps", "parser"}, {"parser", "interpreter"}, {"interpreter", "app"},
		} {
			if err := g.Connect(e.from, e.to, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := g.Run(0); err != nil {
			t.Fatal(err)
		}
	}

	startTarget("alice", 901)
	startTarget("bob", 902)

	center := geo.Point{Lat: 56.1629, Lon: 10.2039}
	near := manager.KNearest(center, 2)
	if len(near) != 2 {
		t.Fatalf("KNearest = %d targets", len(near))
	}
	for _, n := range near {
		if n.Distance > 500 {
			t.Errorf("target %s reported %0.f m away", n.Target.ID(), n.Distance)
		}
	}
}
