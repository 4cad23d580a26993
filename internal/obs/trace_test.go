package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"perpos/internal/channel"
	"perpos/internal/core"
)

// fakeClock returns a deterministic wall clock ticking 1ms per call.
func fakeClock() func() time.Time {
	var mu sync.Mutex
	t := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

// buildTraced wires src -> parser -> sink, instrumented with a fake
// clock, and returns the pieces.
func buildTraced(t *testing.T) (*core.Graph, *core.Sink) {
	t.Helper()
	g := core.New()
	src := &core.SliceSource{
		CompID: "src",
		Out:    core.OutputSpec{Kind: "raw"},
		Samples: []core.Sample{
			core.NewSample("raw", 1, time.Time{}),
			core.NewSample("raw", 2, time.Time{}),
			core.NewSample("raw", 3, time.Time{}),
		},
	}
	parser := core.NewTransform("parser", "raw", "parsed", func(in core.Sample) (core.Sample, bool) {
		out := in
		out.Kind = "parsed"
		return out, true
	})
	sink := core.NewSink("sink", []core.Kind{"parsed"})
	for _, c := range []core.Component{src, parser, sink} {
		if _, err := g.Add(c); err != nil {
			t.Fatalf("add %s: %v", c.ID(), err)
		}
	}
	if err := g.Connect("src", "parser", 0); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if err := g.Connect("parser", "sink", 0); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if err := InstrumentGraph(g, func(f *TraceFeature) { f.now = fakeClock() }); err != nil {
		t.Fatalf("instrument: %v", err)
	}
	return g, sink
}

func TestTraceFeatureStampsEmissions(t *testing.T) {
	g, sink := buildTraced(t)
	if _, err := g.Run(20); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := sink.Received()
	if len(got) != 3 {
		t.Fatalf("sink received %d samples, want 3", len(got))
	}
	for i, s := range got {
		rec, ok := TraceOf(s)
		if !ok {
			t.Fatalf("sample %d carries no span record", i)
		}
		if rec.Node != "parser" {
			t.Errorf("sample %d span node = %q, want parser (last stamp wins)", i, rec.Node)
		}
		if rec.Logical != s.Logical {
			t.Errorf("sample %d span logical = %d, sample logical = %d", i, rec.Logical, s.Logical)
		}
		if rec.Exit.Before(rec.Enter) {
			t.Errorf("sample %d exit %v before enter %v", i, rec.Exit, rec.Enter)
		}
		if rec.Duration() <= 0 {
			t.Errorf("sample %d duration = %v, want > 0 under ticking clock", i, rec.Duration())
		}
	}
}

func TestInstrumentGraphIdempotent(t *testing.T) {
	g, _ := buildTraced(t)
	// A second pass must skip already-instrumented nodes, not error.
	if err := InstrumentGraph(g); err != nil {
		t.Fatalf("re-instrument: %v", err)
	}
	for _, n := range g.Nodes() {
		if !n.HasCapability(TraceFeatureName) {
			t.Errorf("node %s missing %s capability", n.ID(), TraceFeatureName)
		}
	}
}

// TestLastTreeFormatsAsTrace is the perpos-inspect -trace path: the
// last delivery of a channel through an instrumented graph, rebuilt by
// Channel.LastTree, formats as an end-to-end trace.
func TestLastTreeFormatsAsTrace(t *testing.T) {
	g, _ := buildTraced(t)
	layer := channel.NewLayer(g)
	defer layer.Close()

	ch, ok := layer.ChannelInto("sink", 0)
	if !ok {
		t.Fatal("no channel into sink")
	}
	if _, gotIt := ch.LastTree(); gotIt {
		t.Fatal("LastTree before any delivery should report false")
	}
	if _, err := g.Run(20); err != nil {
		t.Fatalf("run: %v", err)
	}

	tree, ok := ch.LastTree()
	if !ok {
		t.Fatal("no delivery recorded by the channel")
	}
	out := FormatTrace(tree)
	for _, want := range []string{"parser", "src", "logical=", "process=", "end-to-end:"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted trace missing %q:\n%s", want, out)
		}
	}
	// The parser line is the root (depth 0), the src line indented under it.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "parser ") {
		t.Errorf("first line = %q, want root parser span", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  src ") {
		t.Errorf("second line = %q, want indented src span", lines[1])
	}
}

func TestFormatTraceEmpty(t *testing.T) {
	if got := FormatTrace(nil); got != "(no delivery recorded)\n" {
		t.Errorf("FormatTrace(nil) = %q", got)
	}
	if got := FormatTrace(&channel.DataTree{}); got != "(no delivery recorded)\n" {
		t.Errorf("FormatTrace(empty) = %q", got)
	}
}

// TestGraphObserverCountsAsyncRun drives the instrumented graph through
// Graph.Start with the observer registered and checks the emission
// counts and the sampled process timings.
func TestGraphObserverCountsAsyncRun(t *testing.T) {
	g, sink := buildTraced(t)
	m := New()
	cancel := g.Observe(NewGraphObserver(m, nil))
	defer cancel()

	if err := g.Start(context.Background()); err != nil {
		t.Fatalf("start: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.Len() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := g.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if sink.Len() != 3 {
		t.Fatalf("sink received %d, want 3", sink.Len())
	}
	if got := m.Emissions("parser"); got != 3 {
		t.Errorf("parser emissions = %d, want 3", got)
	}
	if got := m.Emissions("src"); got != 3 {
		t.Errorf("src emissions = %d, want 3", got)
	}
	if got := m.SpansEmitted(); got != 6 {
		t.Errorf("spans emitted = %d, want 6", got)
	}
	// A node times one call in 16, starting with its first.
	if got := m.Node("parser").ProcessNs.Count(); got != 1 {
		t.Errorf("parser timings = %d, want 1", got)
	}
	if got := m.Node("src").ProcessNs.Count(); got != 1 {
		t.Errorf("src timings = %d, want 1", got)
	}
}
