package health

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"perpos/internal/core"
)

// OnSweep hooks run once per sweep, after reconciliation, in
// registration order.
func TestSupervisorOnSweep(t *testing.T) {
	g := fusionTestGraph(t)
	m := NewMonitor(Policy{MaxConsecutiveErrors: 1})
	adapter := Adapter(func(edit func(*core.Graph) error) error { return edit(g) })
	sup := NewSupervisor(m, adapter, []Reroute{{
		Watch: "wifi",
		Break: core.Edge{From: "fuse", To: "app", Port: 0},
		Make:  core.Edge{From: "gps", To: "app", Port: 0},
	}})

	var order []string
	var stamps []time.Time
	sup.OnSweep(func(now time.Time) {
		order = append(order, "a")
		stamps = append(stamps, now)
		// The hook observes the post-reconcile graph: after the wifi
		// breaker opens, the reroute is already engaged here.
	})
	sup.OnSweep(func(time.Time) { order = append(order, "b") })
	sup.OnSweep(nil) // ignored

	sup.Sweep(t0)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("hook order = %v, want [a b]", order)
	}
	if !stamps[0].Equal(t0) {
		t.Fatalf("hook time = %v, want %v", stamps[0], t0)
	}

	// The hook sees the sweep's own reroute already applied.
	var sawBypass bool
	sup.OnSweep(func(time.Time) { sawBypass = hasEdge(g, "gps", "app") })
	m.Done("wifi", 0, errors.New("boom"))
	sup.Sweep(t0.Add(time.Second))
	if !sawBypass {
		t.Fatal("OnSweep hook ran before the supervisor reconciled its reroutes")
	}
}

// TestSweepsShareOneGrid: supervisors with one period, started half a
// period apart, sweep at the same instants, so that one wake of a job
// shard runs all the sweeps due then.
func TestSweepsShareOneGrid(t *testing.T) {
	const period, sweeps = 40 * time.Millisecond, 4
	var mu sync.Mutex
	at := make([][]time.Time, 2)
	sups := make([]*Supervisor, len(at))
	for i := range sups {
		i := i
		sups[i] = NewSupervisor(NewMonitor(Policy{Sweep: period}), nil, nil)
		sups[i].OnSweep(func(now time.Time) {
			mu.Lock()
			at[i] = append(at[i], now)
			mu.Unlock()
		})
		sups[i].Start(context.Background())
		time.Sleep(period / 2)
	}
	for end := time.Now().Add(5 * time.Second); ; time.Sleep(period) {
		mu.Lock()
		n := len(at[0])
		mu.Unlock()
		if n > sweeps+2 || time.Now().After(end) {
			break
		}
	}
	for _, s := range sups {
		s.Stop()
	}
	// The first supervisor may stop before its sweep of the second's
	// last instant: compare the second's sweeps up to the first's last.
	// The median distance leaves out a sweep a busy machine delayed.
	var apart []time.Duration
	for _, b := range at[1] {
		if len(at[0]) == 0 || b.After(at[0][len(at[0])-1]) {
			break
		}
		nearest := period
		for _, a := range at[0] {
			nearest = min(nearest, b.Sub(a).Abs())
		}
		apart = append(apart, nearest)
	}
	if len(apart) < sweeps {
		t.Fatalf("compared %d sweeps of the second supervisor, want %d", len(apart), sweeps)
	}
	slices.Sort(apart)
	if m := apart[len(apart)/2]; m > period/4 {
		t.Errorf("the second supervisor's sweeps ran a median %v from the nearest of the first's, want the same instants", m)
	}
}

// ClaimedEdges must cover both reroutes the supervisor has engaged and
// reroutes it wants (watch down) but has not applied yet — the rules
// engine uses the union to stay out of the supervisor's way.
func TestSupervisorClaimedEdges(t *testing.T) {
	g := fusionTestGraph(t)
	m := NewMonitor(Policy{MaxConsecutiveErrors: 1})
	fail := true
	adapter := Adapter(func(edit func(*core.Graph) error) error {
		if fail {
			return errors.New("blocked")
		}
		return edit(g)
	})
	fused := core.Edge{From: "fuse", To: "app", Port: 0}
	bypass := core.Edge{From: "gps", To: "app", Port: 0}
	sup := NewSupervisor(m, adapter, []Reroute{{Watch: "wifi", Break: fused, Make: bypass}})

	if claimed := sup.ClaimedEdges(nil); len(claimed) != 0 {
		t.Fatalf("claims with everything healthy: %v", claimed)
	}

	// Watch down but the edit failing: the reroute is wanted, not
	// engaged — the edges must be claimed anyway.
	m.Done("wifi", 0, errors.New("boom"))
	sup.Sweep(t0)
	claimed := sup.ClaimedEdges(nil)
	if !containsEdge(claimed, fused) || !containsEdge(claimed, bypass) {
		t.Fatalf("down-watch claims = %v, want both %v and %v", claimed, fused, bypass)
	}

	// Edit now succeeds: engaged reroute keeps the claim.
	fail = false
	sup.Sweep(t0.Add(time.Second))
	if !sup.Degraded() {
		t.Fatal("reroute not engaged after the adapter recovered")
	}
	claimed = sup.ClaimedEdges(claimed[:0])
	if !containsEdge(claimed, fused) || !containsEdge(claimed, bypass) {
		t.Fatalf("engaged claims = %v", claimed)
	}

	// Recovery releases the claim.
	m.Done("wifi", 0, nil)
	m.Tap("wifi", core.Sample{})
	sup.Sweep(t0.Add(2 * time.Second))
	if claimed = sup.ClaimedEdges(claimed[:0]); len(claimed) != 0 {
		t.Fatalf("claims after recovery: %v", claimed)
	}
}

// A reroute whose edit fails must be retried on a later sweep even when
// no breaker transitions again — the window where a rule held the edge
// and then let go arrives between transitions.
func TestSupervisorRetriesFailedRerouteWithoutTransition(t *testing.T) {
	g := fusionTestGraph(t)
	m := NewMonitor(Policy{MaxConsecutiveErrors: 1})
	fail := true
	var edits int
	adapter := Adapter(func(edit func(*core.Graph) error) error {
		edits++
		if fail {
			return errors.New("edge held elsewhere")
		}
		return edit(g)
	})
	sup := NewSupervisor(m, adapter, []Reroute{{
		Watch: "wifi",
		Break: core.Edge{From: "fuse", To: "app", Port: 0},
		Make:  core.Edge{From: "gps", To: "app", Port: 0},
	}})

	m.Done("wifi", 0, errors.New("boom"))
	sup.Sweep(t0)
	if edits != 1 || sup.Degraded() {
		t.Fatalf("edits=%d degraded=%v after failed engage", edits, sup.Degraded())
	}

	// No new breaker events — the sweep must still retry the edit.
	fail = false
	sup.Sweep(t0.Add(time.Second))
	if edits != 2 {
		t.Fatalf("edits = %d, want the failed reroute retried", edits)
	}
	if !sup.Degraded() || !hasEdge(g, "gps", "app") {
		t.Fatalf("reroute not engaged on retry: %v", g.Edges())
	}

	// Converged: further sweeps are edit-free.
	sup.Sweep(t0.Add(2 * time.Second))
	if edits != 2 {
		t.Fatalf("edits = %d after convergence, want no further edits", edits)
	}
}

func containsEdge(edges []core.Edge, e core.Edge) bool {
	for _, have := range edges {
		if have == e {
			return true
		}
	}
	return false
}
