package registry

import (
	"errors"
	"strings"
	"testing"
	"time"

	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

// gpsCatalog registers the Fig. 1 GPS pipeline component types.
func gpsCatalog(t *testing.T) *Registry {
	t.Helper()
	r := &Registry{}
	regs := []Registration{
		{
			Name: "Parser",
			Spec: gps.NewParser("proto").Spec(),
			New:  func(id string) core.Component { return gps.NewParser(id) },
		},
		{
			Name: "Interpreter",
			Spec: gps.NewInterpreter("proto", 0).Spec(),
			New:  func(id string) core.Component { return gps.NewInterpreter(id, 0) },
		},
	}
	for _, reg := range regs {
		if err := r.Register(reg); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func testTrace() *trace.Trace {
	return trace.OutdoorTrack(geo.Point{Lat: 56.16, Lon: 10.2}, 1, 2, 100, 1.4, time.Second)
}

func TestRegisterValidation(t *testing.T) {
	r := &Registry{}
	if err := r.Register(Registration{}); err == nil {
		t.Error("empty registration accepted")
	}
	reg := Registration{Name: "X", New: func(id string) core.Component { return nil }}
	if err := r.Register(reg); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(reg); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate error = %v, want ErrDuplicate", err)
	}
	if _, ok := r.Lookup("X"); !ok {
		t.Error("Lookup failed")
	}
	if _, ok := r.Lookup("Y"); ok {
		t.Error("Lookup found unregistered type")
	}
	if names := r.order; len(names) != 1 || names[0] != "X" {
		t.Errorf("Names = %v", names)
	}
}

func TestResolveAssemblesFig1Pipeline(t *testing.T) {
	// Declared-dependency auto-assembly (E8): given only the sensor and
	// the application, the resolver instantiates Parser and Interpreter
	// and wires the chain.
	r := gpsCatalog(t)
	g := core.New()
	if _, err := g.Add(gps.NewReceiver("gps", testTrace(), gps.Config{Seed: 1, ColdStart: time.Second})); err != nil {
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
		t.Fatalf("created = %v, want Interpreter + Parser", created)
	}

	// The assembled pipeline must actually work.
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Error("auto-assembled pipeline delivered nothing")
	}

	// Verify the exact shape: gps -> Parser#1 -> Interpreter#1 -> app.
	edges := map[string]bool{}
	for _, e := range g.Edges() {
		edges[e.From+"->"+e.To] = true
	}
	for _, want := range []string{"gps->Parser#1", "Parser#1->Interpreter#1", "Interpreter#1->app"} {
		if !edges[want] {
			t.Errorf("missing edge %s (have %v)", want, edges)
		}
	}
}

func TestResolvePrefersExistingNodes(t *testing.T) {
	// With a parser already in the graph, the resolver wires it instead
	// of instantiating a second one.
	r := gpsCatalog(t)
	g := core.New()
	if _, err := g.Add(gps.NewReceiver("gps", testTrace(), gps.Config{Seed: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(gps.NewParser("myparser")); err != nil {
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
	for _, id := range created {
		if strings.HasPrefix(id, "Parser") {
			t.Errorf("resolver instantiated %s although myparser exists", id)
		}
	}
	myparser, _ := g.Node("myparser")
	if len(myparser.Downstream()) != 1 {
		t.Error("existing parser not wired into the pipeline")
	}
}

func TestResolveUnresolvable(t *testing.T) {
	r := &Registry{} // empty: nothing can provide positions
	g := core.New()
	sink := core.NewSink("app", []core.Kind{positioning.KindPosition})
	if _, err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	_, err := r.Resolve(g)
	if !errors.Is(err, ErrUnresolvable) {
		t.Errorf("error = %v, want ErrUnresolvable", err)
	}
}

func TestResolveRespectsRequiredFeatures(t *testing.T) {
	// A consumer requiring a feature must not be wired to a provider
	// without it.
	r := &Registry{}
	g := core.New()
	if _, err := g.Add(gps.NewParser("parser")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(gps.NewSatelliteFilter("filter", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(g); !errors.Is(err, ErrUnresolvable) {
		t.Error("resolver wired a connection missing a required feature")
	}

	// After attaching the feature the same resolution succeeds.
	parserNode, _ := g.Node("parser")
	if err := parserNode.AttachFeature(gps.NewSatellitesFeature()); err != nil {
		t.Fatal(err)
	}
	// The filter's own input is now satisfiable, but the parser's raw
	// input port has no provider; add one.
	if _, err := g.Add(gps.NewReceiver("gps", testTrace(), gps.Config{Seed: 2})); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(g); err != nil {
		t.Errorf("Resolve after attach: %v", err)
	}
}

func TestResolveCompleteGraphIsNoOp(t *testing.T) {
	r := gpsCatalog(t)
	g := core.New()
	if _, err := g.Add(gps.NewReceiver("gps", testTrace(), gps.Config{Seed: 1})); err != nil {
		t.Fatal(err)
	}
	created, err := r.Resolve(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 0 {
		t.Errorf("created %v on a complete graph", created)
	}
}

func TestResolveSharesOutputsWhenNecessary(t *testing.T) {
	// Two sinks, one interpreter chain: the second sink forces fan-out
	// from the interpreter.
	r := gpsCatalog(t)
	g := core.New()
	if _, err := g.Add(gps.NewReceiver("gps", testTrace(), gps.Config{Seed: 1})); err != nil {
		t.Fatal(err)
	}
	a := core.NewSink("app-a", []core.Kind{positioning.KindPosition})
	b := core.NewSink("app-b", []core.Kind{positioning.KindPosition})
	if _, err := g.Add(a); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(b); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(g); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || b.Len() == 0 {
		t.Errorf("deliveries a=%d b=%d; want both > 0", a.Len(), b.Len())
	}
}

// selfFeeder is a type that consumes what it produces — resolution must
// not recurse through it.
func selfFeederReg() Registration {
	spec := core.Spec{
		Inputs: []core.PortSpec{{Name: "in", Accepts: []core.Kind{"loop.kind"}}},
		Output: core.OutputSpec{Kind: "loop.kind"},
	}
	return Registration{
		Name: "Loop",
		Spec: spec,
		New: func(id string) core.Component {
			return &core.FuncComponent{CompID: id, CompSpec: spec}
		},
	}
}

func TestResolveDoesNotRecurseSelfFeedingTypes(t *testing.T) {
	r := &Registry{}
	if err := r.Register(selfFeederReg()); err != nil {
		t.Fatal(err)
	}
	g := core.New()
	sink := core.NewSink("app", []core.Kind{"loop.kind"})
	if _, err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	// The only provider for loop.kind needs loop.kind itself: the
	// resolver must fail cleanly instead of instantiating a chain.
	_, err := r.Resolve(g)
	if !errors.Is(err, ErrUnresolvable) {
		t.Errorf("error = %v, want ErrUnresolvable", err)
	}
	if got := len(g.Nodes()); got != 1 {
		t.Errorf("graph has %d nodes after failed resolve, want 1 (rollback)", got)
	}
}

func TestResolveBacktracksDeadEndProvider(t *testing.T) {
	// Two providers of "pos": Dead needs an unobtainable input; Good is
	// registered AFTER Dead and needs nothing. Resolution must back out
	// of Dead and pick Good, leaving no Dead instances behind.
	r := &Registry{}
	deadSpec := core.Spec{
		Inputs: []core.PortSpec{{Name: "in", Accepts: []core.Kind{"unobtainium"}}},
		Output: core.OutputSpec{Kind: "pos"},
	}
	if err := r.Register(Registration{
		Name: "Dead",
		Spec: deadSpec,
		New: func(id string) core.Component {
			return &core.FuncComponent{CompID: id, CompSpec: deadSpec}
		},
	}); err != nil {
		t.Fatal(err)
	}
	goodSpec := core.Spec{Output: core.OutputSpec{Kind: "pos"}}
	if err := r.Register(Registration{
		Name: "Good",
		Spec: goodSpec,
		New: func(id string) core.Component {
			return &core.FuncComponent{CompID: id, CompSpec: goodSpec}
		},
	}); err != nil {
		t.Fatal(err)
	}

	g := core.New()
	if _, err := g.Add(core.NewSink("app", []core.Kind{"pos"})); err != nil {
		t.Fatal(err)
	}
	created, err := r.Resolve(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 1 || created[0] != "Good#1" {
		t.Errorf("created = %v, want [Good#1]", created)
	}
	if _, ok := g.Node("Dead#1"); ok {
		t.Error("dead-end instance left in the graph")
	}
}
