package core

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

const (
	kindRaw Kind = "test.raw"
	kindMid Kind = "test.mid"
	kindPos Kind = "test.pos"
)

// passthrough returns a transform forwarding payloads unchanged.
func passthrough(id string, in, out Kind) *FuncComponent {
	return NewTransform(id, in, out, func(s Sample) (Sample, bool) { return s, true })
}

// source returns a slice source with n integer samples of kindRaw.
func source(id string, n int) *SliceSource {
	samples := make([]Sample, n)
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	for i := range samples {
		samples[i] = NewSample(kindRaw, i, base.Add(time.Duration(i)*time.Second))
	}
	return &SliceSource{
		CompID:  id,
		Out:     OutputSpec{Kind: kindRaw},
		Samples: samples,
	}
}

// buildLinear wires src -> mid -> sink and returns the graph and sink.
func buildLinear(t *testing.T, n int) (*Graph, *Sink) {
	t.Helper()
	g := New()
	if _, err := g.Add(source("src", n)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(passthrough("mid", kindRaw, kindPos)); err != nil {
		t.Fatal(err)
	}
	sink := NewSink("app", []Kind{kindPos})
	if _, err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("src", "mid", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("mid", "app", 0); err != nil {
		t.Fatal(err)
	}
	return g, sink
}

func TestLinearPipelineDeliversAll(t *testing.T) {
	g, sink := buildLinear(t, 5)
	ticks, err := g.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	got := sink.Received()
	if len(got) != 5 {
		t.Fatalf("sink received %d samples, want 5", len(got))
	}
	for i, s := range got {
		if s.Kind != kindPos {
			t.Errorf("sample %d kind = %q, want %q", i, s.Kind, kindPos)
		}
		if s.Payload.(int) != i {
			t.Errorf("sample %d payload = %v, want %d", i, s.Payload, i)
		}
		if s.Source != "mid" {
			t.Errorf("sample %d source = %q, want mid", i, s.Source)
		}
	}
}

func TestAddDuplicateID(t *testing.T) {
	g := New()
	if _, err := g.Add(source("x", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(source("x", 1)); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate Add error = %v, want ErrDuplicateID", err)
	}
}

func TestAddInvalidSpec(t *testing.T) {
	g := New()
	tests := []struct {
		name string
		comp Component
	}{
		{"empty id", &FuncComponent{CompID: ""}},
		{"port accepts nothing", &FuncComponent{
			CompID: "c",
			CompSpec: Spec{
				Inputs: []PortSpec{{Name: "in"}},
				Output: OutputSpec{Kind: kindPos},
			},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := g.Add(tt.comp); !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("Add error = %v, want ErrInvalidSpec", err)
			}
		})
	}
}

func TestConnectValidation(t *testing.T) {
	newGraph := func(t *testing.T) *Graph {
		t.Helper()
		g := New()
		mustAdd(t, g, source("src", 1))
		mustAdd(t, g, passthrough("mid", kindRaw, kindPos))
		mustAdd(t, g, NewSink("app", []Kind{kindPos}))
		return g
	}

	t.Run("unknown from", func(t *testing.T) {
		g := newGraph(t)
		if err := g.Connect("nope", "mid", 0); !errors.Is(err, ErrNotFound) {
			t.Errorf("error = %v, want ErrNotFound", err)
		}
	})
	t.Run("unknown to", func(t *testing.T) {
		g := newGraph(t)
		if err := g.Connect("src", "nope", 0); !errors.Is(err, ErrNotFound) {
			t.Errorf("error = %v, want ErrNotFound", err)
		}
	})
	t.Run("port out of range", func(t *testing.T) {
		g := newGraph(t)
		if err := g.Connect("src", "mid", 3); !errors.Is(err, ErrPortIndex) {
			t.Errorf("error = %v, want ErrPortIndex", err)
		}
		if err := g.Connect("src", "mid", -1); !errors.Is(err, ErrPortIndex) {
			t.Errorf("error = %v, want ErrPortIndex", err)
		}
	})
	t.Run("kind mismatch", func(t *testing.T) {
		g := newGraph(t)
		// src produces kindRaw, app accepts kindPos.
		if err := g.Connect("src", "app", 0); !errors.Is(err, ErrKindMismatch) {
			t.Errorf("error = %v, want ErrKindMismatch", err)
		}
	})
	t.Run("port busy", func(t *testing.T) {
		g := newGraph(t)
		mustAdd(t, g, source("src2", 1))
		if err := g.Connect("src", "mid", 0); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect("src2", "mid", 0); !errors.Is(err, ErrPortBusy) {
			t.Errorf("error = %v, want ErrPortBusy", err)
		}
	})
	t.Run("cycle", func(t *testing.T) {
		g := New()
		mustAdd(t, g, passthrough("a", kindRaw, kindRaw))
		mustAdd(t, g, passthrough("b", kindRaw, kindRaw))
		if err := g.Connect("a", "b", 0); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect("b", "a", 0); !errors.Is(err, ErrCycle) {
			t.Errorf("error = %v, want ErrCycle", err)
		}
	})
	t.Run("self cycle", func(t *testing.T) {
		g := New()
		mustAdd(t, g, passthrough("a", kindRaw, kindRaw))
		if err := g.Connect("a", "a", 0); !errors.Is(err, ErrCycle) {
			t.Errorf("error = %v, want ErrCycle", err)
		}
	})
}

func TestConnectRequiredFeature(t *testing.T) {
	g := New()
	mustAdd(t, g, source("src", 1))
	demanding := &FuncComponent{
		CompID: "dem",
		CompSpec: Spec{
			Inputs: []PortSpec{{
				Name:             "in",
				Accepts:          []Kind{kindRaw},
				RequiresFeatures: []string{"hdop"},
			}},
			Output: OutputSpec{Kind: kindPos},
		},
	}
	mustAdd(t, g, demanding)

	if err := g.Connect("src", "dem", 0); !errors.Is(err, ErrMissingFeature) {
		t.Fatalf("error = %v, want ErrMissingFeature", err)
	}

	// Attaching the feature to the upstream satisfies the requirement —
	// the paper's requirement/capability resolution.
	srcNode, _ := g.Node("src")
	if err := srcNode.AttachFeature(staticFeature{name: "hdop"}); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("src", "dem", 0); err != nil {
		t.Fatalf("Connect after attach: %v", err)
	}
}

func TestDisconnectAndReconnect(t *testing.T) {
	g, sink := buildLinear(t, 2)
	if err := g.Disconnect("mid", "app", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 0 {
		t.Errorf("sink received %d samples after disconnect, want 0", sink.Len())
	}
	if err := g.Disconnect("mid", "app", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("double disconnect error = %v, want ErrNotFound", err)
	}
	if err := g.Connect("mid", "app", 0); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
}

func TestRemoveDisconnects(t *testing.T) {
	g, _ := buildLinear(t, 1)
	if err := g.Remove("mid"); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Node("mid"); ok {
		t.Error("node still present after Remove")
	}
	if got := len(g.Edges()); got != 0 {
		t.Errorf("edges remaining = %d, want 0", got)
	}
	// The app port must be free again.
	mustAdd(t, g, passthrough("mid2", kindRaw, kindPos))
	if err := g.Connect("mid2", "app", 0); err != nil {
		t.Fatalf("reconnect to freed port: %v", err)
	}
	if err := g.Remove("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Remove unknown error = %v, want ErrNotFound", err)
	}
}

func TestInsertBetween(t *testing.T) {
	g, sink := buildLinear(t, 4)
	// Insert a filter dropping odd payloads between mid and app — the
	// §3.1 satellite-filter splice.
	filter := NewFilter("filter", kindPos, func(s Sample) bool {
		return s.Payload.(int)%2 == 0
	})
	if err := g.InsertBetween(filter, "mid", "app", 0, 0); err != nil {
		t.Fatal(err)
	}

	wantEdges := map[string]bool{
		"src->mid:0":    true,
		"mid->filter:0": true,
		"filter->app:0": true,
	}
	for _, e := range g.Edges() {
		key := fmt.Sprintf("%s->%s:%d", e.From, e.To, e.Port)
		if !wantEdges[key] {
			t.Errorf("unexpected edge %s", key)
		}
		delete(wantEdges, key)
	}
	if len(wantEdges) != 0 {
		t.Errorf("missing edges: %v", wantEdges)
	}

	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	got := sink.Received()
	if len(got) != 2 {
		t.Fatalf("sink received %d, want 2 (evens only)", len(got))
	}
	for _, s := range got {
		if s.Payload.(int)%2 != 0 {
			t.Errorf("odd payload %v leaked through filter", s.Payload)
		}
	}
}

func TestInsertBetweenRollsBackOnBadEdge(t *testing.T) {
	g, _ := buildLinear(t, 1)
	// Splicing into a non-existent edge must leave the graph unchanged.
	filter := NewFilter("filter", kindPos, func(Sample) bool { return true })
	err := g.InsertBetween(filter, "src", "app", 0, 0)
	if err == nil {
		t.Fatal("expected error for non-existent edge")
	}
	if _, ok := g.Node("filter"); ok {
		t.Error("filter left behind after failed insert")
	}
	if got := len(g.Edges()); got != 2 {
		t.Errorf("edges = %d, want 2 (original shape)", got)
	}
}

func TestMergeComponentTwoSources(t *testing.T) {
	g := New()
	mustAdd(t, g, source("gps", 3))
	mustAdd(t, g, source("wifi", 3))
	merge := &FuncComponent{
		CompID: "fusion",
		CompSpec: Spec{
			Name: "fusion",
			Inputs: []PortSpec{
				{Name: "gps", Accepts: []Kind{kindRaw}},
				{Name: "wifi", Accepts: []Kind{kindRaw}},
			},
			Output: OutputSpec{Kind: kindPos},
		},
		Fn: func(port int, in Sample, emit Emit) error {
			out := in
			out.Kind = kindPos
			out = out.WithAttr("via", port)
			emit(out)
			return nil
		},
	}
	mustAdd(t, g, merge)
	sink := NewSink("app", []Kind{kindPos})
	mustAdd(t, g, sink)
	for _, c := range []struct {
		from string
		port int
	}{{"gps", 0}, {"wifi", 1}} {
		if err := g.Connect(c.from, "fusion", c.port); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Connect("fusion", "app", 0); err != nil {
		t.Fatal(err)
	}

	if !merge.Spec().IsMerge() {
		t.Error("two-input component should report IsMerge")
	}

	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 6 {
		t.Errorf("sink received %d, want 6", sink.Len())
	}
	ports := map[int]int{}
	for _, s := range sink.Received() {
		v, _ := s.IntAttr("via")
		ports[v]++
	}
	if ports[0] != 3 || ports[1] != 3 {
		t.Errorf("per-port counts = %v, want 3 each", ports)
	}
}

func TestInjectUnknownComponent(t *testing.T) {
	g := New()
	err := g.Inject("ghost", NewSample(kindRaw, 1, time.Time{}))
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("error = %v, want ErrNotFound", err)
	}
}

func TestStepSourceErrors(t *testing.T) {
	g, _ := buildLinear(t, 1)
	if _, err := g.StepSource("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("error = %v, want ErrNotFound", err)
	}
	if _, err := g.StepSource("mid"); !errors.Is(err, ErrNotProducer) {
		t.Errorf("error = %v, want ErrNotProducer", err)
	}
}

func TestComponentErrorPropagates(t *testing.T) {
	g := New()
	mustAdd(t, g, source("src", 1))
	boom := errors.New("boom")
	failing := &FuncComponent{
		CompID: "bad",
		CompSpec: Spec{
			Inputs: []PortSpec{{Name: "in", Accepts: []Kind{kindRaw}}},
			Output: OutputSpec{Kind: kindPos},
		},
		Fn: func(int, Sample, Emit) error { return boom },
	}
	mustAdd(t, g, failing)
	if err := g.Connect("src", "bad", 0); err != nil {
		t.Fatal(err)
	}
	_, err := g.StepSource("src")
	if !errors.Is(err, boom) {
		t.Errorf("error = %v, want wrapped boom", err)
	}
}

func TestSourcesAndSinks(t *testing.T) {
	g, _ := buildLinear(t, 1)
	var srcs, sinks []*Node
	for _, n := range g.Nodes() {
		if n.spec.IsSource() {
			srcs = append(srcs, n)
		}
		if n.spec.IsSink() {
			sinks = append(sinks, n)
		}
	}
	if len(srcs) != 1 || srcs[0].ID() != "src" {
		t.Errorf("sources = %v", ids(srcs))
	}
	if len(sinks) != 1 || sinks[0].ID() != "app" {
		t.Errorf("sinks = %v", ids(sinks))
	}
}

func TestUpstreamDownstream(t *testing.T) {
	g, _ := buildLinear(t, 1)
	mid, _ := g.Node("mid")
	up := mid.Upstream()
	if len(up) != 1 || up[0].ID() != "src" {
		t.Errorf("Upstream = %v", ids(up))
	}
	down := mid.Downstream()
	if len(down) != 1 || down[0].ID() != "app" {
		t.Errorf("Downstream = %v", ids(down))
	}
}

func TestTapObservesEveryEmission(t *testing.T) {
	g, _ := buildLinear(t, 3)
	var events []string
	cancel := g.Tap(func(id string, s Sample) {
		events = append(events, fmt.Sprintf("%s:%d", id, s.Logical))
	})
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	// 3 emissions each from src and mid (app is a sink and emits none).
	if len(events) != 6 {
		t.Errorf("tap saw %d events, want 6: %v", len(events), events)
	}

	cancel()
	before := len(events)
	if err := g.Inject("src", NewSample(kindRaw, 9, time.Time{})); err != nil {
		t.Fatal(err)
	}
	if len(events) != before {
		t.Error("tap still firing after cancel")
	}
}

// TestTapsFireInRegistrationOrder: every tap sees each emission, in the
// order the taps were registered, and cancelling one keeps the order of
// the rest.
func TestTapsFireInRegistrationOrder(t *testing.T) {
	g, _ := buildLinear(t, 2)
	var order []string
	tap := func(name string) TapFunc {
		return func(id string, s Sample) { order = append(order, fmt.Sprintf("%s<%s:%d", name, id, s.Logical)) }
	}
	g.Tap(tap("a"))
	cancelB := g.Tap(tap("b"))
	g.Tap(tap("c"))
	if err := g.Inject("src", NewSample(kindRaw, 1, time.Time{})); err != nil {
		t.Fatal(err)
	}
	// src's emission reaches every tap before mid's emission does.
	want := "[a<src:1 b<src:1 c<src:1 a<mid:1 b<mid:1 c<mid:1]"
	if got := fmt.Sprint(order); got != want {
		t.Errorf("tap order = %s, want %s", got, want)
	}

	cancelB()
	order = nil
	if err := g.Inject("src", NewSample(kindRaw, 2, time.Time{})); err != nil {
		t.Fatal(err)
	}
	if want := "[a<src:2 c<src:2 a<mid:2 c<mid:2]"; fmt.Sprint(order) != want {
		t.Errorf("tap order after cancel = %v, want %s", order, want)
	}
}

// TestSinkKeepRetainsNewest: WithKeep turns the sink's record into a
// ring of the n most recent samples, oldest first.
func TestSinkKeepRetainsNewest(t *testing.T) {
	sink := NewSink("app", nil, WithKeep(2))
	for i := 1; i <= 5; i++ {
		if err := sink.Process(0, NewSample(kindRaw, i, time.Time{}), nil); err != nil {
			t.Fatal(err)
		}
	}
	got := sink.Received()
	if len(got) != 2 || got[0].Payload != 4 || got[1].Payload != 5 {
		t.Errorf("Received = %v, want payloads [4 5]", got)
	}
	if last, ok := sink.Last(); !ok || last.Payload != 5 {
		t.Errorf("Last = %v, %v, want payload 5", last, ok)
	}
}

func TestKindAnyAcceptsEverything(t *testing.T) {
	g := New()
	mustAdd(t, g, source("src", 1))
	sink := NewSink("app", nil) // defaults to KindAny
	mustAdd(t, g, sink)
	if err := g.Connect("src", "app", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 1 {
		t.Errorf("sink received %d, want 1", sink.Len())
	}
}

func TestSinkHelpers(t *testing.T) {
	sink := NewSink("app", nil)
	if _, ok := sink.Last(); ok {
		t.Error("Last on empty sink should report !ok")
	}
	var cbCount int
	sink2 := NewSink("app2", nil, WithCallback(func(Sample) { cbCount++ }))
	if err := sink2.Process(0, NewSample(kindRaw, 1, time.Time{}), nil); err != nil {
		t.Fatal(err)
	}
	if cbCount != 1 {
		t.Errorf("callback count = %d, want 1", cbCount)
	}
}

// staticFeature is a bare feature providing only a name (state-access
// style features in tests).
type staticFeature struct{ name string }

func (f staticFeature) FeatureName() string { return f.name }

func mustAdd(t *testing.T, g *Graph, c Component) *Node {
	t.Helper()
	n, err := g.Add(c)
	if err != nil {
		t.Fatalf("Add(%s): %v", c.ID(), err)
	}
	return n
}

func ids(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.ID()
	}
	return out
}

func TestPanickingComponentIsContained(t *testing.T) {
	g := New()
	mustAdd(t, g, source("src", 3))
	bomb := &FuncComponent{
		CompID: "bomb",
		CompSpec: Spec{
			Inputs: []PortSpec{{Name: "in", Accepts: []Kind{kindRaw}}},
			Output: OutputSpec{Kind: kindPos},
		},
		Fn: func(_ int, in Sample, emit Emit) error {
			if in.Payload.(int) == 1 {
				panic("component bug")
			}
			out := in
			out.Kind = kindPos
			emit(out)
			return nil
		},
	}
	mustAdd(t, g, bomb)
	sink := NewSink("app", []Kind{kindPos})
	mustAdd(t, g, sink)
	if err := g.Connect("src", "bomb", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("bomb", "app", 0); err != nil {
		t.Fatal(err)
	}

	// The run surfaces the panic as an error but the pipeline survives:
	// samples 0 and 2 are delivered.
	var errs []error
	for {
		more, err := g.StepAll()
		if err != nil {
			errs = append(errs, err)
		}
		if !more {
			break
		}
	}
	if len(errs) != 1 || !errors.Is(errs[0], ErrPanicked) {
		t.Errorf("errors = %v, want one ErrPanicked", errs)
	}
	if sink.Len() != 2 {
		t.Errorf("sink received %d, want 2 (pipeline must survive the panic)", sink.Len())
	}
}

func TestPanickingProducerIsContained(t *testing.T) {
	g := New()
	mustAdd(t, g, &panickySource{id: "src"})
	_, err := g.StepSource("src")
	if !errors.Is(err, ErrPanicked) {
		t.Errorf("error = %v, want ErrPanicked", err)
	}
}

// panickySource panics on Step.
type panickySource struct{ id string }

func (s *panickySource) ID() string { return s.id }
func (s *panickySource) Spec() Spec {
	return Spec{Name: s.id, Output: OutputSpec{Kind: kindRaw}}
}
func (s *panickySource) Process(int, Sample, Emit) error { return nil }
func (s *panickySource) Step(Emit) (bool, error)         { panic("source bug") }

func TestLargeGraphPropagation(t *testing.T) {
	// A 100-component tree: 10 sources, each through a 9-stage chain
	// into a 10-port merge, then the app. Exercises scale and ordering.
	g := New()
	nSources := 10
	depth := 9

	inputs := make([]PortSpec, nSources)
	for i := range inputs {
		inputs[i] = PortSpec{
			Name:    fmt.Sprintf("in%d", i),
			Accepts: []Kind{Kind(fmt.Sprintf("s%d.k%d", i, depth))},
		}
	}
	merge := &FuncComponent{
		CompID: "merge",
		CompSpec: Spec{
			Name:   "merge",
			Inputs: inputs,
			Output: OutputSpec{Kind: kindPos},
		},
		Fn: func(_ int, in Sample, emit Emit) error {
			out := in
			out.Kind = kindPos
			emit(out)
			return nil
		},
	}
	mustAdd(t, g, merge)
	sink := NewSink("app", []Kind{kindPos})
	mustAdd(t, g, sink)
	if err := g.Connect("merge", "app", 0); err != nil {
		t.Fatal(err)
	}

	const samplesPerSource = 20
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	for s := 0; s < nSources; s++ {
		srcID := fmt.Sprintf("s%d", s)
		samples := make([]Sample, samplesPerSource)
		for i := range samples {
			samples[i] = NewSample(Kind(fmt.Sprintf("s%d.k0", s)), i, base.Add(time.Duration(i)*time.Second))
		}
		mustAdd(t, g, &SliceSource{
			CompID:  srcID,
			Out:     OutputSpec{Kind: Kind(fmt.Sprintf("s%d.k0", s))},
			Samples: samples,
		})
		prev := srcID
		for d := 1; d <= depth; d++ {
			id := fmt.Sprintf("s%d.t%d", s, d)
			mustAdd(t, g, passthrough(id,
				Kind(fmt.Sprintf("s%d.k%d", s, d-1)),
				Kind(fmt.Sprintf("s%d.k%d", s, d))))
			if err := g.Connect(prev, id, 0); err != nil {
				t.Fatal(err)
			}
			prev = id
		}
		if err := g.Connect(prev, "merge", s); err != nil {
			t.Fatal(err)
		}
	}

	if got := len(g.Nodes()); got != nSources*(depth+1)+2 {
		t.Fatalf("nodes = %d", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != nSources*samplesPerSource {
		t.Errorf("sink received %d, want %d", sink.Len(), nSources*samplesPerSource)
	}
}
