package health

import (
	"errors"
	"testing"
	"time"

	"perpos/internal/core"
)

var t0 = time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)

func TestBreakerTripsOnConsecutiveErrors(t *testing.T) {
	m := NewMonitor(Policy{MaxConsecutiveErrors: 3})
	boom := errors.New("boom")
	m.Done("wifi", 0, boom)
	m.Done("wifi", 0, boom)
	if ev := m.Advance(t0); len(ev) != 0 {
		t.Fatalf("tripped after 2 errors: %v", ev)
	}
	m.Done("wifi", 0, boom)
	ev := m.Advance(t0)
	if len(ev) != 1 || ev[0].Up || ev[0].Reason != "errors" {
		t.Fatalf("events = %+v, want one down(errors)", ev)
	}
	if !errors.Is(ev[0].Err, boom) {
		t.Errorf("event error = %v, want the tripping error", ev[0].Err)
	}
	h, ok := m.Health("wifi")
	if !ok || h.State != StateDown || h.Trips != 1 {
		t.Errorf("health = %+v, want down with 1 trip", h)
	}
}

func TestSuccessBreaksTheStreak(t *testing.T) {
	m := NewMonitor(Policy{MaxConsecutiveErrors: 2})
	boom := errors.New("boom")
	m.Done("wifi", 0, boom)
	m.Done("wifi", 0, nil)
	m.Done("wifi", 0, boom)
	if ev := m.Advance(t0); len(ev) != 0 {
		t.Fatalf("tripped on a broken streak: %v", ev)
	}
}

func TestWatchdogTripsOnSilenceOnlyAfterFirstOutput(t *testing.T) {
	m := NewMonitor(Policy{Deadlines: map[string]time.Duration{"wifi": time.Second}})
	// Never emitted: no deadline, however much time passes (cold start).
	if ev := m.Advance(t0.Add(time.Hour)); len(ev) != 0 {
		t.Fatalf("cold-start watchdog tripped: %v", ev)
	}
	m.Tap("wifi", core.Sample{}) // monitor clock stamps real time here
	h, _ := m.Health("wifi")
	if ev := m.Advance(h.LastOutput.Add(500 * time.Millisecond)); len(ev) != 0 {
		t.Fatalf("tripped within deadline: %v", ev)
	}
	ev := m.Advance(h.LastOutput.Add(2 * time.Second))
	if len(ev) != 1 || ev[0].Up || ev[0].Reason != "silence" {
		t.Fatalf("events = %+v, want one down(silence)", ev)
	}
}

// TestUnwatchedNodesNeverDeadlineTrip: only the nodes Deadlines lists
// are held to a deadline.
func TestUnwatchedNodesNeverDeadlineTrip(t *testing.T) {
	m := NewMonitor(Policy{Deadlines: map[string]time.Duration{"wifi": time.Second}})
	m.Tap("lazy", core.Sample{})
	h, _ := m.Health("lazy")
	if ev := m.Advance(h.LastOutput.Add(time.Hour)); len(ev) != 0 {
		t.Fatalf("unwatched node tripped: %v", ev)
	}
}

func TestPerNodeDeadlineOverride(t *testing.T) {
	m := NewMonitor(Policy{Deadlines: map[string]time.Duration{"wifi": 100 * time.Millisecond}})
	m.Tap("wifi", core.Sample{})
	h, _ := m.Health("wifi")
	ev := m.Advance(h.LastOutput.Add(200 * time.Millisecond))
	if len(ev) != 1 || ev[0].Reason != "silence" {
		t.Fatalf("events = %+v, want the per-node deadline to trip", ev)
	}
}

func TestRecoveryNeedsEmissionsAndNoStreak(t *testing.T) {
	m := NewMonitor(Policy{MaxConsecutiveErrors: 1, RecoveryEmissions: 2})
	m.Done("wifi", 0, errors.New("boom"))
	if ev := m.Advance(t0); len(ev) != 1 || ev[0].Up {
		t.Fatalf("setup: want a down event, got %v", ev)
	}
	// One emission: not enough.
	m.Tap("wifi", core.Sample{})
	if ev := m.Advance(t0.Add(time.Second)); len(ev) != 0 {
		t.Fatalf("recovered after 1 emission, want 2: %v", ev)
	}
	// Second emission, but the error streak is still standing — the
	// consecutive counter must be cleared by a success first.
	m.Tap("wifi", core.Sample{})
	if ev := m.Advance(t0.Add(2 * time.Second)); len(ev) != 0 {
		t.Fatalf("recovered with a standing error streak: %v", ev)
	}
	m.Done("wifi", 0, nil)
	ev := m.Advance(t0.Add(3 * time.Second))
	if len(ev) != 1 || !ev[0].Up || ev[0].Reason != "recovered" {
		t.Fatalf("events = %+v, want one up(recovered)", ev)
	}
	if m.AnyDown() {
		t.Error("AnyDown after recovery")
	}
}

func TestGateQuarantinesWithProbes(t *testing.T) {
	now := t0
	m := NewMonitor(
		Policy{MaxConsecutiveErrors: 1, ProbeInterval: time.Second},
		withClock(func() time.Time { return now }),
	)
	if !m.Allow("wifi") {
		t.Fatal("healthy node gated off")
	}
	m.Done("wifi", 0, errors.New("boom"))
	m.Advance(now)
	if m.Allow("wifi") {
		t.Fatal("quarantined node admitted before the probe interval")
	}
	now = now.Add(2 * time.Second)
	if !m.Allow("wifi") {
		t.Fatal("probe not admitted after the interval")
	}
	if m.Allow("wifi") {
		t.Fatal("second probe admitted immediately — probes must be paced")
	}
}

func TestSupervisorAppliesAndReversesReroute(t *testing.T) {
	g := core.New()
	for _, c := range []core.Component{
		&core.SliceSource{CompID: "gps", Out: core.OutputSpec{Kind: "pos"}},
		&core.SliceSource{CompID: "wifi", Out: core.OutputSpec{Kind: "pos"}},
		&core.FuncComponent{
			CompID: "fuse",
			CompSpec: core.Spec{
				Name: "fuse",
				Inputs: []core.PortSpec{
					{Name: "primary", Accepts: []core.Kind{"pos"}},
					{Name: "secondary", Accepts: []core.Kind{"pos"}},
				},
				Output: core.OutputSpec{Kind: "pos"},
			},
			Fn: func(_ int, in core.Sample, emit core.Emit) error {
				emit(in)
				return nil
			},
		},
		core.NewSink("app", []core.Kind{"pos"}),
	} {
		if _, err := g.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][3]any{{"gps", "fuse", 0}, {"wifi", "fuse", 1}, {"fuse", "app", 0}} {
		if err := g.Connect(e[0].(string), e[1].(string), e[2].(int)); err != nil {
			t.Fatal(err)
		}
	}

	m := NewMonitor(Policy{MaxConsecutiveErrors: 1})
	var edits int
	adapter := Adapter(func(edit func(*core.Graph) error) error {
		edits++
		return edit(g)
	})
	sup := NewSupervisor(m, adapter, []Reroute{{
		Watch: "wifi",
		Break: core.Edge{From: "fuse", To: "app", Port: 0},
		Make:  core.Edge{From: "gps", To: "app", Port: 0},
	}})

	var events []Event
	sup.OnEvent(func(e Event) { events = append(events, e) })

	hasEdge := func(from, to string) bool {
		for _, e := range g.Edges() {
			if e.From == from && e.To == to {
				return true
			}
		}
		return false
	}

	m.Done("wifi", 0, errors.New("boom"))
	sup.Sweep(t0)
	if !sup.Degraded() {
		t.Fatal("not degraded after the breaker opened")
	}
	if hasEdge("fuse", "app") || !hasEdge("gps", "app") {
		t.Fatalf("degraded edges wrong: %v", g.Edges())
	}

	m.Done("wifi", 0, nil)
	m.Tap("wifi", core.Sample{})
	sup.Sweep(t0.Add(time.Second))
	if sup.Degraded() {
		t.Fatal("still degraded after recovery")
	}
	if !hasEdge("fuse", "app") || hasEdge("gps", "app") {
		t.Fatalf("restored edges wrong: %v", g.Edges())
	}
	if edits != 2 {
		t.Errorf("edits = %d, want 2 (degrade + restore)", edits)
	}
	if len(events) != 2 || events[0].Up || !events[1].Up {
		t.Errorf("events = %+v, want [down, up]", events)
	}
}

// fusionTestGraph builds the two-branch fixture the reroute tests share:
// gps and wifi sources feeding a fuse component whose output drains to app.
func fusionTestGraph(t *testing.T) *core.Graph {
	t.Helper()
	g := core.New()
	for _, c := range []core.Component{
		&core.SliceSource{CompID: "gps", Out: core.OutputSpec{Kind: "pos"}},
		&core.SliceSource{CompID: "wifi", Out: core.OutputSpec{Kind: "pos"}},
		&core.FuncComponent{
			CompID: "fuse",
			CompSpec: core.Spec{
				Name: "fuse",
				Inputs: []core.PortSpec{
					{Name: "primary", Accepts: []core.Kind{"pos"}},
					{Name: "secondary", Accepts: []core.Kind{"pos"}},
				},
				Output: core.OutputSpec{Kind: "pos"},
			},
			Fn: func(_ int, in core.Sample, emit core.Emit) error {
				emit(in)
				return nil
			},
		},
		core.NewSink("app", []core.Kind{"pos"}),
	} {
		if _, err := g.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][3]any{{"gps", "fuse", 0}, {"wifi", "fuse", 1}, {"fuse", "app", 0}} {
		if err := g.Connect(e[0].(string), e[1].(string), e[2].(int)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func hasEdge(g *core.Graph, from, to string) bool {
	for _, e := range g.Edges() {
		if e.From == from && e.To == to {
			return true
		}
	}
	return false
}

// Both fusion branches fail at once: the conflict group must engage
// exactly one rule — the lowest priority — and switch directly to the
// other rule when the preferred branch's failure becomes the only one
// left to route around.
func TestSupervisorPriorityOrderedFallback(t *testing.T) {
	g := fusionTestGraph(t)
	m := NewMonitor(Policy{MaxConsecutiveErrors: 1})
	var edits int
	adapter := Adapter(func(edit func(*core.Graph) error) error {
		edits++
		return edit(g)
	})
	fused := core.Edge{From: "fuse", To: "app", Port: 0}
	sup := NewSupervisor(m, adapter, []Reroute{
		{Watch: "wifi", Break: fused, Make: core.Edge{From: "gps", To: "app", Port: 0}, Priority: 0},
		{Watch: "gps", Break: fused, Make: core.Edge{From: "wifi", To: "app", Port: 0}, Priority: 1},
	})

	boom := errors.New("boom")
	m.Done("wifi", 0, boom)
	m.Done("gps", 0, boom)
	if ev := sup.Sweep(t0); len(ev) != 2 {
		t.Fatalf("events = %+v, want both branches down", ev)
	}
	if !sup.Degraded() {
		t.Fatal("not degraded with both branches down")
	}
	if hasEdge(g, "fuse", "app") || !hasEdge(g, "gps", "app") || hasEdge(g, "wifi", "app") {
		t.Fatalf("both-down edges wrong (want priority-0 gps bypass only): %v", g.Edges())
	}
	if edits != 1 {
		t.Fatalf("edits = %d, want a single engage for the whole group", edits)
	}

	// The preferred rule's watch recovers while gps stays down: the group
	// must switch straight to the priority-1 rule in one edit, never
	// touching the broken fused edge in between.
	m.Done("wifi", 0, nil)
	m.Tap("wifi", core.Sample{})
	sup.Sweep(t0.Add(time.Second))
	if !sup.Degraded() {
		t.Fatal("not degraded while gps is still down")
	}
	if hasEdge(g, "fuse", "app") || hasEdge(g, "gps", "app") || !hasEdge(g, "wifi", "app") {
		t.Fatalf("post-switch edges wrong (want wifi bypass only): %v", g.Edges())
	}
	if edits != 2 {
		t.Fatalf("edits = %d, want the switch to be one atomic edit", edits)
	}

	// Full recovery restores the fused edge.
	m.Done("gps", 0, nil)
	m.Tap("gps", core.Sample{})
	sup.Sweep(t0.Add(2 * time.Second))
	if sup.Degraded() {
		t.Fatal("still degraded after full recovery")
	}
	if !hasEdge(g, "fuse", "app") || hasEdge(g, "gps", "app") || hasEdge(g, "wifi", "app") {
		t.Fatalf("restored edges wrong: %v", g.Edges())
	}
	if edits != 3 {
		t.Errorf("edits = %d, want engage + switch + restore", edits)
	}
}

// Equal priorities fall back to declaration order, deterministically:
// every fresh supervisor over the same rule set must pick the same rule
// when both watches are down in the same sweep.
func TestSupervisorTieBreakIsDeclarationOrder(t *testing.T) {
	fused := core.Edge{From: "fuse", To: "app", Port: 0}
	for run := 0; run < 5; run++ {
		g := fusionTestGraph(t)
		m := NewMonitor(Policy{MaxConsecutiveErrors: 1})
		adapter := Adapter(func(edit func(*core.Graph) error) error { return edit(g) })
		sup := NewSupervisor(m, adapter, []Reroute{
			{Watch: "gps", Break: fused, Make: core.Edge{From: "wifi", To: "app", Port: 0}, Priority: 2},
			{Watch: "wifi", Break: fused, Make: core.Edge{From: "gps", To: "app", Port: 0}, Priority: 2},
		})
		boom := errors.New("boom")
		m.Done("gps", 0, boom)
		m.Done("wifi", 0, boom)
		sup.Sweep(t0)
		if !hasEdge(g, "wifi", "app") || hasEdge(g, "gps", "app") || hasEdge(g, "fuse", "app") {
			t.Fatalf("run %d: tie broke to the wrong rule: %v", run, g.Edges())
		}
	}
}

func TestSupervisorReportsFailedReroute(t *testing.T) {
	m := NewMonitor(Policy{MaxConsecutiveErrors: 1})
	adapter := Adapter(func(func(*core.Graph) error) error {
		return errors.New("graph says no")
	})
	sup := NewSupervisor(m, adapter, []Reroute{{Watch: "wifi"}})
	var events []Event
	sup.OnEvent(func(e Event) { events = append(events, e) })
	m.Done("wifi", 0, errors.New("boom"))
	sup.Sweep(t0)
	if len(events) != 1 || events[0].Reason != "reroute-failed" {
		t.Fatalf("events = %+v, want one reroute-failed", events)
	}
	if sup.Degraded() {
		t.Error("Degraded() true after a failed edit")
	}
}

func TestSnapshotSorted(t *testing.T) {
	m := NewMonitor(Policy{})
	m.Tap("b", core.Sample{})
	m.Tap("a", core.Sample{})
	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].Node != "a" || snap[1].Node != "b" {
		t.Fatalf("snapshot = %+v, want sorted [a b]", snap)
	}
}
