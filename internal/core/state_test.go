package core

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// counterComponent is a stateful pass-through: it counts processed
// samples and exposes the count as serializable state.
type counterComponent struct {
	id    string
	Count int `json:"count"`
}

func (c *counterComponent) ID() string { return c.id }
func (c *counterComponent) Spec() Spec {
	return Spec{
		Name:   "Counter",
		Inputs: []PortSpec{{Name: "in", Accepts: []Kind{KindAny}}},
		Output: OutputSpec{Kind: "counted"},
	}
}
func (c *counterComponent) Process(_ int, in Sample, emit Emit) error {
	c.Count++
	emit(NewSample("counted", c.Count, in.Time))
	return nil
}
func (c *counterComponent) MarshalState() ([]byte, error) { return json.Marshal(c) }
func (c *counterComponent) UnmarshalState(data []byte) error {
	return json.Unmarshal(data, c)
}

func stateGraph(t *testing.T) (*Graph, *counterComponent, *Sink) {
	t.Helper()
	g := New()
	samples := make([]Sample, 4)
	for i := range samples {
		samples[i] = NewSample("raw", i, time.Time{})
	}
	src := &SliceSource{CompID: "src", Out: OutputSpec{Kind: "raw"}, Samples: samples}
	counter := &counterComponent{id: "counter"}
	sink := NewSink("app", []Kind{"counted"})
	for _, c := range []Component{src, counter, sink} {
		if _, err := g.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Connect("src", "counter", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("counter", "app", 0); err != nil {
		t.Fatal(err)
	}
	return g, counter, sink
}

// TestGraphStateRoundTrip snapshots a half-run graph and restores the
// snapshot onto a fresh instance: logical clocks and component state
// must carry over so the resumed run continues the logical timeline.
func TestGraphStateRoundTrip(t *testing.T) {
	g, counter, _ := stateGraph(t)
	for i := 0; i < 2; i++ {
		if _, err := g.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	if counter.Count != 2 {
		t.Fatalf("counter.Count = %d, want 2", counter.Count)
	}
	snap, err := g.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot must survive a JSON round trip (the journal format).
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded GraphState
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}

	g2, counter2, sink2 := stateGraph(t)
	if err := g2.RestoreState(decoded); err != nil {
		t.Fatal(err)
	}
	if counter2.Count != 2 {
		t.Fatalf("restored counter.Count = %d, want 2", counter2.Count)
	}
	n, _ := g2.Node("counter")
	if n.Clock() != 2 {
		t.Fatalf("restored clock = %d, want 2", n.Clock())
	}
	// The restored source continues mid-replay and the counter continues
	// its logical timeline.
	if _, err := g2.StepAll(); err != nil {
		t.Fatal(err)
	}
	got := sink2.Received()
	if len(got) != 1 {
		t.Fatalf("sink received %d samples, want 1", len(got))
	}
	if got[0].Logical != 3 {
		t.Fatalf("resumed emission logical time = %d, want 3 (monotonic continuation)", got[0].Logical)
	}
}

// TestStateFeatureExposure: a snapshot carries a stateful component's
// state as its own MarshalState produces it, with no feature attached.
func TestStateFeatureExposure(t *testing.T) {
	g, _, _ := stateGraph(t)
	if _, err := g.StepAll(); err != nil {
		t.Fatal(err)
	}
	snap, err := g.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	var st counterComponent
	for _, ns := range snap.Nodes {
		if ns.ID == "counter" {
			if err := json.Unmarshal(ns.Component, &st); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st.Count != 1 {
		t.Fatalf("snapshotted count = %d, want 1", st.Count)
	}
}

// TestStateFeatureOnStatelessHost: a stateless component snapshots no
// component state, and restoring component state onto it fails
// cleanly.
func TestStateFeatureOnStatelessHost(t *testing.T) {
	g := New()
	if _, err := g.Add(NewSink("app", []Kind{KindAny})); err != nil {
		t.Fatal(err)
	}
	snap, err := g.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Nodes) != 1 || snap.Nodes[0].Component != nil {
		t.Fatalf("snapshot = %+v, want one node without component state", snap)
	}
	snap.Nodes[0].Component = json.RawMessage(`{"count": 1}`)
	if err := g.RestoreState(snap); !errors.Is(err, ErrNotStateful) {
		t.Fatalf("RestoreState = %v, want ErrNotStateful", err)
	}
}

// TestRestoreUnknownNodesSkipped: state for nodes the graph no longer
// has (post-adaptation resume) is ignored, not fatal.
func TestRestoreUnknownNodesSkipped(t *testing.T) {
	g, _, _ := stateGraph(t)
	gs := GraphState{Nodes: []NodeState{{ID: "ghost", Clock: 99}}}
	if err := g.RestoreState(gs); err != nil {
		t.Fatalf("RestoreState with unknown node = %v, want nil", err)
	}
}

// TestSnapshotWhileRunning: state capture requires quiescence.
func TestSnapshotWhileRunning(t *testing.T) {
	g, _, _ := stateGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := g.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if _, err := g.SnapshotState(); !errors.Is(err, ErrRunning) {
		t.Fatalf("SnapshotState while running = %v, want ErrRunning", err)
	}
	if err := g.RestoreState(GraphState{}); !errors.Is(err, ErrRunning) {
		t.Fatalf("RestoreState while running = %v, want ErrRunning", err)
	}
}
