package channel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"perpos/internal/core"
)

const (
	kindRaw  core.Kind = "gps.raw"
	kindNMEA core.Kind = "nmea"
	kindPos  core.Kind = "wgs84"
	kindScan core.Kind = "wifi.scan"
	kindEst  core.Kind = "position.estimate"
)

// mustAdd adds a component or fails the test.
func mustAdd(t *testing.T, g *core.Graph, c core.Component) *core.Node {
	t.Helper()
	n, err := g.Add(c)
	if err != nil {
		t.Fatalf("Add(%s): %v", c.ID(), err)
	}
	return n
}

func mustConnect(t *testing.T, g *core.Graph, from, to string, port int) {
	t.Helper()
	if err := g.Connect(from, to, port); err != nil {
		t.Fatalf("Connect(%s->%s:%d): %v", from, to, port, err)
	}
}

// rawSource returns n raw samples from a source with the given id.
func rawSource(id string, kind core.Kind, n int) *core.SliceSource {
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	samples := make([]core.Sample, n)
	for i := range samples {
		samples[i] = core.NewSample(kind, i+1, base.Add(time.Duration(i)*time.Second))
	}
	return &core.SliceSource{CompID: id, Out: core.OutputSpec{Kind: kind}, Samples: samples}
}

// passthrough forwards payloads, rewriting the kind.
func passthrough(id string, in, out core.Kind) *core.FuncComponent {
	return core.NewTransform(id, in, out, func(s core.Sample) (core.Sample, bool) {
		return s, true
	})
}

// buildFig2Graph builds the Fig. 2 pipeline: GPS -> Parser ->
// Interpreter -> ParticleFilter <- WiFi, ParticleFilter -> app.
func buildFig2Graph(t *testing.T, n int) (*core.Graph, *core.Sink) {
	t.Helper()
	g := core.New()
	mustAdd(t, g, rawSource("gps", kindRaw, n))
	mustAdd(t, g, passthrough("parser", kindRaw, kindNMEA))
	mustAdd(t, g, passthrough("interpreter", kindNMEA, kindPos))
	mustAdd(t, g, rawSource("wifi", kindScan, n))
	pf := &core.FuncComponent{
		CompID: "particle-filter",
		CompSpec: core.Spec{
			Name: "ParticleFilter",
			Inputs: []core.PortSpec{
				{Name: "gps", Accepts: []core.Kind{kindPos}},
				{Name: "wifi", Accepts: []core.Kind{kindScan}},
			},
			Output: core.OutputSpec{Kind: kindEst},
		},
		Fn: func(_ int, in core.Sample, emit core.Emit) error {
			out := in
			out.Kind = kindEst
			emit(out)
			return nil
		},
	}
	mustAdd(t, g, pf)
	sink := core.NewSink("app", []core.Kind{kindEst})
	mustAdd(t, g, sink)
	mustConnect(t, g, "gps", "parser", 0)
	mustConnect(t, g, "parser", "interpreter", 0)
	mustConnect(t, g, "interpreter", "particle-filter", 0)
	mustConnect(t, g, "wifi", "particle-filter", 1)
	mustConnect(t, g, "particle-filter", "app", 0)
	return g, sink
}

func TestDeriveFig2Channels(t *testing.T) {
	g, _ := buildFig2Graph(t, 1)
	l := NewLayer(g)
	defer l.Close()

	channels := l.Channels()
	if len(channels) != 3 {
		t.Fatalf("derived %d channels, want 3: %v", len(channels), channelIDs(channels))
	}

	byID := make(map[string]*Channel)
	for _, c := range channels {
		byID[c.ID()] = c
	}

	gps, ok := byID["gps->particle-filter:0"]
	if !ok {
		t.Fatalf("missing gps channel; got %v", channelIDs(channels))
	}
	wantNodes := []string{"gps", "parser", "interpreter"}
	if got := gps.NodeIDs(); !equalStrings(got, wantNodes) {
		t.Errorf("gps channel nodes = %v, want %v", got, wantNodes)
	}
	if gps.endpoint.ID() != "interpreter" {
		t.Errorf("gps endpoint = %q, want interpreter", gps.endpoint.ID())
	}
	if gps.consumer.ID() != "particle-filter" || gps.port != 0 {
		t.Errorf("gps consumer = %q:%d", gps.consumer.ID(), gps.port)
	}

	wifi, ok := byID["wifi->particle-filter:1"]
	if !ok {
		t.Fatalf("missing wifi channel; got %v", channelIDs(channels))
	}
	if got := wifi.NodeIDs(); !equalStrings(got, []string{"wifi"}) {
		t.Errorf("wifi channel nodes = %v", got)
	}

	pfApp, ok := byID["particle-filter->app:0"]
	if !ok {
		t.Fatalf("missing pf->app channel; got %v", channelIDs(channels))
	}
	if got := pfApp.NodeIDs(); !equalStrings(got, []string{"particle-filter"}) {
		t.Errorf("pf->app channel nodes = %v", got)
	}
	if pfApp.source.ID() != "particle-filter" {
		t.Errorf("pf->app source = %q", pfApp.source.ID())
	}
}

// TestDeriveDeepFanOutPathsIndependent is the regression test for the
// derive path-extension bug: following a fan-out, sibling branches must
// not alias one backing array (an append-based extension could overwrite
// a sibling's tail, corrupting its channel's node list).
func TestDeriveDeepFanOutPathsIndependent(t *testing.T) {
	g := core.New()
	mustAdd(t, g, rawSource("src", kindRaw, 1))
	mustAdd(t, g, passthrough("a", kindRaw, kindRaw))
	mustAdd(t, g, passthrough("b", kindRaw, kindRaw))
	// Fan-out at b into two deep branches, plus a nested fan-out on the
	// first branch — the shapes that stress shared path prefixes.
	for _, id := range []string{"c1", "d1", "e1", "c2", "d2", "e2", "f1"} {
		mustAdd(t, g, passthrough(id, kindRaw, kindRaw))
	}
	for _, sink := range []string{"app1", "app2", "app3"} {
		mustAdd(t, g, core.NewSink(sink, []core.Kind{kindRaw}))
	}
	mustConnect(t, g, "src", "a", 0)
	mustConnect(t, g, "a", "b", 0)
	mustConnect(t, g, "b", "c1", 0)
	mustConnect(t, g, "c1", "d1", 0)
	mustConnect(t, g, "d1", "e1", 0)
	mustConnect(t, g, "e1", "app1", 0)
	mustConnect(t, g, "b", "c2", 0)
	mustConnect(t, g, "c2", "d2", 0)
	mustConnect(t, g, "d2", "e2", 0)
	mustConnect(t, g, "e2", "app2", 0)
	// Nested fan-out: d1 also feeds a third branch.
	mustConnect(t, g, "d1", "f1", 0)
	mustConnect(t, g, "f1", "app3", 0)

	l := NewLayer(g)
	defer l.Close()

	want := map[string][]string{
		"src->app1:0": {"src", "a", "b", "c1", "d1", "e1"},
		"src->app2:0": {"src", "a", "b", "c2", "d2", "e2"},
		"src->app3:0": {"src", "a", "b", "c1", "d1", "f1"},
	}
	channels := l.Channels()
	if len(channels) != len(want) {
		t.Fatalf("derived %d channels, want %d: %v", len(channels), len(want), channelIDs(channels))
	}
	for _, c := range channels {
		wantNodes, ok := want[c.ID()]
		if !ok {
			t.Errorf("unexpected channel %q", c.ID())
			continue
		}
		if got := c.NodeIDs(); !equalStrings(got, wantNodes) {
			t.Errorf("channel %q nodes = %v, want %v", c.ID(), got, wantNodes)
		}
	}
}

func TestViewMatchesFig2Structure(t *testing.T) {
	g, _ := buildFig2Graph(t, 1)
	l := NewLayer(g)
	defer l.Close()

	v := l.View()
	if !equalStrings(v.Sources, []string{"gps", "wifi"}) {
		t.Errorf("Sources = %v, want [gps wifi]", v.Sources)
	}
	if !equalStrings(v.Merges, []string{"particle-filter"}) {
		t.Errorf("Merges = %v, want [particle-filter]", v.Merges)
	}
	if !equalStrings(v.Sinks, []string{"app"}) {
		t.Errorf("Sinks = %v, want [app]", v.Sinks)
	}
	if len(v.Channels) != 3 {
		t.Errorf("Channels = %d, want 3", len(v.Channels))
	}
}

func TestChannelInto(t *testing.T) {
	g, _ := buildFig2Graph(t, 1)
	l := NewLayer(g)
	defer l.Close()

	c, ok := l.ChannelInto("particle-filter", 0)
	if !ok || c.source.ID() != "gps" {
		t.Errorf("ChannelInto(pf, 0) = %v, %v; want gps channel", c, ok)
	}
	c, ok = l.ChannelInto("particle-filter", 1)
	if !ok || c.source.ID() != "wifi" {
		t.Errorf("ChannelInto(pf, 1) = %v, %v; want wifi channel", c, ok)
	}
	if _, ok := l.ChannelInto("particle-filter", 9); ok {
		t.Error("ChannelInto with bad port should report !ok")
	}
	if _, ok := l.ChannelInto("ghost", 0); ok {
		t.Error("ChannelInto with unknown consumer should report !ok")
	}
}

func TestChannelsFrom(t *testing.T) {
	g, _ := buildFig2Graph(t, 1)
	l := NewLayer(g)
	defer l.Close()
	if cs := l.ChannelsFrom("gps"); len(cs) != 1 {
		t.Errorf("ChannelsFrom(gps) = %d channels, want 1", len(cs))
	}
	if cs := l.ChannelsFrom("parser"); len(cs) != 0 {
		t.Errorf("ChannelsFrom(parser) = %d channels, want 0 (not a PCL source)", len(cs))
	}
}

func TestDanglingChannel(t *testing.T) {
	g := core.New()
	mustAdd(t, g, rawSource("gps", kindRaw, 1))
	mustAdd(t, g, passthrough("parser", kindRaw, kindNMEA))
	mustConnect(t, g, "gps", "parser", 0)
	l := NewLayer(g)
	defer l.Close()

	channels := l.Channels()
	if len(channels) != 1 {
		t.Fatalf("channels = %v, want 1 dangling", channelIDs(channels))
	}
	if channels[0].consumer != nil {
		t.Error("dangling channel should have nil consumer")
	}
	if channels[0].port != -1 {
		t.Errorf("dangling port = %d, want -1", channels[0].port)
	}
}

// buildFig4Graph builds the exact Fig. 4 batching pipeline used for tree
// tests: gps emits 5 strings, parser batches 2 then 3, interpreter needs
// 2 sentences for one position.
func buildFig4Graph(t *testing.T) (*core.Graph, *core.Sink) {
	t.Helper()
	g := core.New()
	mustAdd(t, g, rawSource("gps", kindRaw, 5))

	batch := []int{2, 3}
	var consumed, batchIdx, sentence int
	parser := &core.FuncComponent{
		CompID: "parser",
		CompSpec: core.Spec{
			Name:   "Parser",
			Inputs: []core.PortSpec{{Name: "in", Accepts: []core.Kind{kindRaw}}},
			Output: core.OutputSpec{Kind: kindNMEA},
		},
		Fn: func(_ int, in core.Sample, emit core.Emit) error {
			consumed++
			if batchIdx < len(batch) && consumed == batch[batchIdx] {
				consumed = 0
				batchIdx++
				sentence++
				emit(core.NewSample(kindNMEA, fmt.Sprintf("NMEA%d", sentence), in.Time))
			}
			return nil
		},
	}
	mustAdd(t, g, parser)

	var seen int
	interp := &core.FuncComponent{
		CompID: "interpreter",
		CompSpec: core.Spec{
			Name:   "Interpreter",
			Inputs: []core.PortSpec{{Name: "in", Accepts: []core.Kind{kindNMEA}}},
			Output: core.OutputSpec{Kind: kindPos},
		},
		Fn: func(_ int, in core.Sample, emit core.Emit) error {
			seen++
			if seen == 2 {
				emit(core.NewSample(kindPos, "WGS84_1", in.Time))
			}
			return nil
		},
	}
	mustAdd(t, g, interp)
	sink := core.NewSink("app", []core.Kind{kindPos})
	mustAdd(t, g, sink)
	mustConnect(t, g, "gps", "parser", 0)
	mustConnect(t, g, "parser", "interpreter", 0)
	mustConnect(t, g, "interpreter", "app", 0)
	return g, sink
}

func TestFig4DataTree(t *testing.T) {
	g, _ := buildFig4Graph(t)
	l := NewLayer(g)
	defer l.Close()

	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}

	c, ok := l.ChannelInto("app", 0)
	if !ok {
		t.Fatal("no channel into app")
	}
	tree, ok := c.LastTree()
	if !ok {
		t.Fatal("no tree delivered")
	}

	// Fig. 4: root WGS84_1 <- {NMEA1 <- strings 1-2, NMEA2 <- strings 3-5}.
	if got := tree.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3\n%s", got, tree)
	}
	if got := tree.Size(); got != 8 { // 1 wgs84 + 2 nmea + 5 strings
		t.Errorf("Size = %d, want 8\n%s", got, tree)
	}
	if tree.Root.Sample.Payload != "WGS84_1" {
		t.Errorf("root = %v", tree.Root.Sample)
	}

	nmea := tree.Data(kindNMEA)
	if len(nmea) != 2 {
		t.Fatalf("Data(nmea) = %d entries, want 2", len(nmea))
	}
	for i, e := range nmea {
		if e.ComponentID != "parser" {
			t.Errorf("nmea %d component = %q, want parser", i, e.ComponentID)
		}
	}
	if nmea[0].Sample.Payload != "NMEA1" || nmea[1].Sample.Payload != "NMEA2" {
		t.Errorf("nmea payloads = %v, %v", nmea[0].Sample.Payload, nmea[1].Sample.Payload)
	}

	raw := tree.Data(kindRaw)
	if len(raw) != 5 {
		t.Fatalf("Data(raw) = %d entries, want 5", len(raw))
	}

	// Spot-check the grouping: NMEA1 has strings 1-2 as children.
	nmea1 := tree.Root.Children[0]
	if len(nmea1.Children) != 2 {
		t.Errorf("NMEA1 children = %d, want 2\n%s", len(nmea1.Children), tree)
	}
	nmea2 := tree.Root.Children[1]
	if len(nmea2.Children) != 3 {
		t.Errorf("NMEA2 children = %d, want 3\n%s", len(nmea2.Children), tree)
	}

	// All() covers everything in pre-order, root first.
	all := tree.All()
	if len(all) != 8 || all[0].Sample.Payload != "WGS84_1" {
		t.Errorf("All() = %d entries, first %v", len(all), all[0].Sample)
	}
}

func TestDataTreeString(t *testing.T) {
	g, _ := buildFig4Graph(t)
	l := NewLayer(g)
	defer l.Close()
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	c, _ := l.ChannelInto("app", 0)
	tree, _ := c.LastTree()
	s := tree.String()
	if !strings.Contains(s, "wgs84@interpreter:1") {
		t.Errorf("tree rendering missing root line:\n%s", s)
	}
	if strings.Count(s, "\n") != 8 {
		t.Errorf("tree rendering has %d lines, want 8:\n%s", strings.Count(s, "\n"), s)
	}
}

func TestEmptyTreeHelpers(t *testing.T) {
	var nilTree *DataTree
	if nilTree.Depth() != 0 || nilTree.Size() != 0 {
		t.Error("nil tree should have zero depth and size")
	}
	if nilTree.String() != "" {
		t.Error("nil tree should render empty")
	}
	empty := &DataTree{}
	if empty.Depth() != 0 || len(empty.Data(kindRaw)) != 0 {
		t.Error("empty tree should have no data")
	}
}

// recordingFeature counts Apply calls and remembers trees.
type recordingFeature struct {
	name   string
	trees  []*DataTree
	reqs   Requirements
	hasReq bool
}

func (f *recordingFeature) FeatureName() string { return f.name }

func (f *recordingFeature) Apply(tree *DataTree) { f.trees = append(f.trees, tree) }

func (f *recordingFeature) Requires() Requirements { return f.reqs }

// plainFeature has no requirements.
type plainFeature struct {
	name  string
	count int
}

func (f *plainFeature) FeatureName() string { return f.name }
func (f *plainFeature) Apply(*DataTree)     { f.count++ }

func TestChannelFeatureAppliedPerDelivery(t *testing.T) {
	g, sink := buildFig2Graph(t, 3)
	l := NewLayer(g)
	defer l.Close()

	c, _ := l.ChannelInto("particle-filter", 0)
	f := &plainFeature{name: "counter"}
	if err := c.AttachFeature(f); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	// Three positions flow through the gps channel into the PF.
	if f.count != 3 {
		t.Errorf("Apply called %d times, want 3", f.count)
	}
	if sink.Len() != 6 { // 3 via gps + 3 via wifi
		t.Errorf("sink received %d, want 6", sink.Len())
	}
}

func TestChannelFeatureAppliesBeforeConsumer(t *testing.T) {
	// The Fig. 5 contract: when the consumer receives a position, the
	// channel feature state already reflects that position's tree.
	g := core.New()
	mustAdd(t, g, rawSource("gps", kindRaw, 3))
	mustAdd(t, g, passthrough("interp", kindRaw, kindPos))

	var observedCounts []int
	f := &plainFeature{name: "counter"}
	sink := core.NewSink("app", []core.Kind{kindPos}, core.WithCallback(func(core.Sample) {
		observedCounts = append(observedCounts, f.count)
	}))
	mustAdd(t, g, sink)
	mustConnect(t, g, "gps", "interp", 0)
	mustConnect(t, g, "interp", "app", 0)

	l := NewLayer(g)
	defer l.Close()
	c, ok := l.ChannelInto("app", 0)
	if !ok {
		t.Fatal("no channel into app")
	}
	if err := c.AttachFeature(f); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(observedCounts) != 3 {
		t.Fatalf("observed %v", observedCounts)
	}
	for i := range want {
		if observedCounts[i] != want[i] {
			t.Errorf("delivery %d saw feature count %d, want %d (Apply must precede consumer)",
				i, observedCounts[i], want[i])
		}
	}
}

func TestFeatureRequirements(t *testing.T) {
	g, _ := buildFig2Graph(t, 1)
	l := NewLayer(g)
	defer l.Close()
	c, _ := l.ChannelInto("particle-filter", 0)

	t.Run("missing component feature", func(t *testing.T) {
		f := &recordingFeature{name: "needsHDOP", reqs: Requirements{ComponentFeatures: []string{"hdop"}}}
		if err := c.AttachFeature(f); !errors.Is(err, ErrUnmetRequirement) {
			t.Errorf("error = %v, want ErrUnmetRequirement", err)
		}
	})
	t.Run("satisfied after attaching component feature", func(t *testing.T) {
		parser, _ := g.Node("parser")
		if err := parser.AttachFeature(namedFeature("hdop")); err != nil {
			t.Fatal(err)
		}
		f := &recordingFeature{name: "needsHDOP", reqs: Requirements{ComponentFeatures: []string{"hdop"}}}
		if err := c.AttachFeature(f); err != nil {
			t.Errorf("attach after capability present: %v", err)
		}
	})
	t.Run("missing channel feature", func(t *testing.T) {
		f := &recordingFeature{name: "dependent", reqs: Requirements{ChannelFeatures: []string{"absent"}}}
		if err := c.AttachFeature(f); !errors.Is(err, ErrUnmetRequirement) {
			t.Errorf("error = %v, want ErrUnmetRequirement", err)
		}
	})
	t.Run("present channel feature", func(t *testing.T) {
		f := &recordingFeature{name: "dependent2", reqs: Requirements{ChannelFeatures: []string{"needsHDOP"}}}
		if err := c.AttachFeature(f); err != nil {
			t.Errorf("attach: %v", err)
		}
	})
	t.Run("missing component", func(t *testing.T) {
		f := &recordingFeature{name: "needsKalman", reqs: Requirements{Components: []string{"Kalman"}}}
		if err := c.AttachFeature(f); !errors.Is(err, ErrUnmetRequirement) {
			t.Errorf("error = %v, want ErrUnmetRequirement", err)
		}
	})
	t.Run("present component", func(t *testing.T) {
		f := &recordingFeature{name: "needsParser", reqs: Requirements{Components: []string{"parser"}}}
		if err := c.AttachFeature(f); err != nil {
			t.Errorf("attach: %v", err)
		}
	})
	t.Run("duplicate name", func(t *testing.T) {
		f := &recordingFeature{name: "needsParser"}
		if err := c.AttachFeature(f); !errors.Is(err, ErrFeatureExists) {
			t.Errorf("error = %v, want ErrFeatureExists", err)
		}
	})
}

// namedFeature is a bare component feature for capability tests.
type namedFeature string

func (f namedFeature) FeatureName() string { return string(f) }

func TestChannelFeatureLookupFallsBackToEndpoint(t *testing.T) {
	// A Component Feature on the channel's last component is visible
	// through Channel.Feature — the semantic-equivalence rule.
	g, _ := buildFig2Graph(t, 1)
	l := NewLayer(g)
	defer l.Close()
	c, _ := l.ChannelInto("particle-filter", 0)

	interp, _ := g.Node("interpreter")
	if err := interp.AttachFeature(namedFeature("accuracy")); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Feature("accuracy")
	if !ok {
		t.Fatal("endpoint component feature not visible through channel")
	}
	if got.(core.Feature).FeatureName() != "accuracy" {
		t.Errorf("lookup returned %v", got)
	}
	if _, ok := c.Feature("missing"); ok {
		t.Error("missing feature lookup should fail")
	}
}

func TestRefreshPreservesFeaturesAcrossInsert(t *testing.T) {
	g, _ := buildFig2Graph(t, 0)
	l := NewLayer(g)
	defer l.Close()

	c, _ := l.ChannelInto("particle-filter", 0)
	f := &plainFeature{name: "counter"}
	if err := c.AttachFeature(f); err != nil {
		t.Fatal(err)
	}

	// Insert a filter after the parser (§3.1) and refresh the layer.
	filter := core.NewFilter("satfilter", kindNMEA, func(core.Sample) bool { return true })
	if err := g.InsertBetween(filter, "parser", "interpreter", 0, 0); err != nil {
		t.Fatal(err)
	}
	l.Refresh()

	c2, ok := l.ChannelInto("particle-filter", 0)
	if !ok {
		t.Fatal("gps channel lost after refresh")
	}
	wantNodes := []string{"gps", "parser", "satfilter", "interpreter"}
	if got := c2.NodeIDs(); !equalStrings(got, wantNodes) {
		t.Errorf("nodes after insert = %v, want %v", got, wantNodes)
	}
	names := c2.FeatureNames()
	if len(names) != 1 || names[0] != "counter" {
		t.Errorf("features after refresh = %v, want [counter]", names)
	}

	// The preserved feature still fires.
	if err := g.Inject("gps", core.NewSample(kindRaw, 1, time.Time{})); err != nil {
		t.Fatal(err)
	}
	if f.count != 1 {
		t.Errorf("feature count = %d, want 1", f.count)
	}
}

func TestHistoryLimitBoundsTree(t *testing.T) {
	// With a tiny history, old contributing samples fall out of the
	// ring and the tree degrades gracefully (fewer leaves, no panic).
	g, _ := buildFig4Graph(t)
	l := NewLayer(g, WithHistory(2))
	defer l.Close()
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	c, _ := l.ChannelInto("app", 0)
	tree, ok := c.LastTree()
	if !ok {
		t.Fatal("no tree")
	}
	if tree.Size() > 8 {
		t.Errorf("tree size = %d, should not exceed full size", tree.Size())
	}
	if tree.Root.Sample.Payload != "WGS84_1" {
		t.Errorf("root = %v", tree.Root.Sample)
	}
}

func channelIDs(cs []*Channel) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.ID()
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFeatureMethodsInspection(t *testing.T) {
	g, _ := buildFig2Graph(t, 1)
	l := NewLayer(g)
	defer l.Close()
	c, _ := l.ChannelInto("particle-filter", 0)

	f := &recordingFeature{name: "rec"}
	if err := c.AttachFeature(f); err != nil {
		t.Fatal(err)
	}
	methods, ok := c.FeatureMethods("rec")
	if !ok {
		t.Fatal("feature not found")
	}
	want := map[string]bool{"Apply": true, "FeatureName": true, "Requires": true}
	for _, m := range methods {
		delete(want, m)
	}
	if len(want) != 0 {
		t.Errorf("methods %v missing %v", methods, want)
	}
	if _, ok := c.FeatureMethods("absent"); ok {
		t.Error("methods of absent feature")
	}
	if MethodsOf(nil) != nil {
		t.Error("MethodsOf(nil) should be nil")
	}

	d := c.Describe()
	if d.ID != c.ID() || d.Consumer != "particle-filter" {
		t.Errorf("Describe = %+v", d)
	}
	if len(d.Features) != 1 || d.Features[0].Name != "rec" {
		t.Errorf("Describe features = %+v", d.Features)
	}
}

// TestAsyncEngineWithChannelLayer: the layer's taps and tree building
// run in the started graph's source jobs, one per source, so the
// gps and wifi branches tap the layer concurrently; this is the race
// test for the PCL's locking.
func TestAsyncEngineWithChannelLayer(t *testing.T) {
	g, sink := buildFig2Graph(t, 50)
	l := NewLayer(g)
	defer l.Close()
	c, _ := l.ChannelInto("particle-filter", 0)
	f := &plainFeature{name: "counter"}
	if err := c.AttachFeature(f); err != nil {
		t.Fatal(err)
	}

	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.WaitSources()
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 100 { // 50 gps + 50 wifi through the pass-through PF
		t.Errorf("sink received %d, want 100", sink.Len())
	}
	if f.count != 50 {
		t.Errorf("channel feature applied %d times, want 50", f.count)
	}
	if _, ok := c.LastTree(); !ok {
		t.Error("no tree delivered under async engine")
	}
}
