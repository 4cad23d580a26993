package health

import (
	"testing"
	"time"

	"perpos/internal/core"
)

// TestWatchdogRearmsAfterProbeRecovery walks the full silence →
// quarantine → half-open probe → recovery → silence cycle while a
// reroute is engaged, and checks the watchdog is armed again after the
// recovery: a second silence must trip the breaker a second time and
// re-engage the reroute. Also pins the OnReroute hook sequence
// (engage, disengage, engage).
func TestWatchdogRearmsAfterProbeRecovery(t *testing.T) {
	g := fusionTestGraph(t)
	now := t0
	m := NewMonitor(Policy{
		MaxConsecutiveErrors: 3,
		Deadlines:            map[string]time.Duration{"wifi": 100 * time.Millisecond},
		RecoveryEmissions:    1,
		ProbeInterval:        10 * time.Millisecond,
	}, withClock(func() time.Time { return now }))
	adapter := Adapter(func(edit func(*core.Graph) error) error { return edit(g) })
	sup := NewSupervisor(m, adapter, []Reroute{{
		Watch: "wifi",
		Break: core.Edge{From: "fuse", To: "app", Port: 0},
		Make:  core.Edge{From: "gps", To: "app", Port: 0},
	}})
	var reroutes []bool
	sup.OnReroute(func(engaged bool) { reroutes = append(reroutes, engaged) })

	// First output arms the watchdog; within the deadline nothing trips.
	m.Tap("wifi", core.Sample{})
	sup.Sweep(t0.Add(50 * time.Millisecond))
	if sup.Degraded() {
		t.Fatal("degraded before the deadline elapsed")
	}

	// Silence past the deadline: trip #1, reroute engaged.
	sup.Sweep(t0.Add(200 * time.Millisecond))
	if !sup.Degraded() {
		t.Fatal("not degraded after silence past the deadline")
	}
	if hasEdge(g, "fuse", "app") || !hasEdge(g, "gps", "app") {
		t.Fatalf("degraded edges wrong: %v", g.Edges())
	}

	// Half-open probe: one delivery is admitted after ProbeInterval and
	// the node answers with an emission.
	now = t0.Add(220 * time.Millisecond)
	if !m.Allow("wifi") {
		t.Fatal("probe not admitted after ProbeInterval")
	}
	if m.Allow("wifi") {
		t.Fatal("second delivery admitted inside the probe interval")
	}
	m.Tap("wifi", core.Sample{})

	// Recovery sweep: breaker closes, reroute disengages.
	sup.Sweep(t0.Add(230 * time.Millisecond))
	if sup.Degraded() {
		t.Fatal("still degraded after the probe succeeded")
	}
	if !hasEdge(g, "fuse", "app") || hasEdge(g, "gps", "app") {
		t.Fatalf("restored edges wrong: %v", g.Edges())
	}
	if h, _ := m.Health("wifi"); h.Trips != 1 {
		t.Fatalf("trips after recovery = %d, want 1", h.Trips)
	}

	// The watchdog must still be armed: a second silence trips again.
	sup.Sweep(t0.Add(400 * time.Millisecond))
	if !sup.Degraded() {
		t.Fatal("watchdog did not re-arm: second silence left the node healthy")
	}
	if hasEdge(g, "fuse", "app") || !hasEdge(g, "gps", "app") {
		t.Fatalf("re-degraded edges wrong: %v", g.Edges())
	}
	h, _ := m.Health("wifi")
	if h.Trips != 2 {
		t.Errorf("trips = %d, want 2", h.Trips)
	}
	want := []bool{true, false, true}
	if len(reroutes) != len(want) {
		t.Fatalf("reroute hook calls = %v, want %v", reroutes, want)
	}
	for i := range want {
		if reroutes[i] != want[i] {
			t.Fatalf("reroute hook calls = %v, want %v", reroutes, want)
		}
	}
}
