package runtime_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perpos/internal/chaos"
	"perpos/internal/core"
	"perpos/internal/health"
	"perpos/internal/positioning"
	"perpos/internal/runtime"
)

// TestChaosFusionDegradation is the end-to-end robustness scenario: a
// session of rules-fusion.json, without its rules, whose WiFi sensor is
// chaos-killed mid-run. The supervisor must trip the wifi breaker,
// reroute the app to the GPS branch, flip the provider to
// TEMPORARILY_UNAVAILABLE, and keep positions flowing; healing the
// sensor must restore fusion and the AVAILABLE state.
func TestChaosFusionDegradation(t *testing.T) {
	w := newFusionWorld()
	var wifiChaos *chaos.Source
	m := w.manager(t, noRules, w.base(w.receiver(time.Second), &wifiChaos))
	defer m.Close()

	s, err := m.GetOrCreate("eve")
	if err != nil {
		t.Fatal(err)
	}
	if wifiChaos == nil {
		t.Fatal("override never built the chaos-wrapped sensor")
	}

	// Record the JSR-179 availability transitions as they happen.
	var availMu sync.Mutex
	var transitions []positioning.Availability
	s.Provider().NotifyAvailability(func(a positioning.Availability) {
		availMu.Lock()
		transitions = append(transitions, a)
		availMu.Unlock()
	})
	var delivered atomic.Int64
	s.Provider().Subscribe(func(positioning.Position) { delivered.Add(1) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx, core.WithSourceInterval(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	// Phase 1: full fusion delivers positions.
	runtime.WaitFor(t, 5*time.Second, "first fused positions", func() bool {
		return delivered.Load() >= 3
	})
	if got := s.Provider().Availability(); got != positioning.Available {
		t.Fatalf("availability while healthy = %v, want Available", got)
	}

	// Phase 2: the WiFi branch dies. The breaker must open, the
	// supervisor must reroute to the GPS branch, and the provider must
	// turn temporarily unavailable — while positions keep flowing.
	wifiChaos.Kill(nil)
	runtime.WaitFor(t, 5*time.Second, "provider to degrade", func() bool {
		return s.Provider().Availability() == positioning.TemporarilyUnavailable &&
			s.Supervisor().Degraded()
	})
	if h, ok := s.Monitor().Health("wifi"); !ok || h.State != health.StateDown {
		t.Fatalf("wifi health = %+v, want down", h)
	}
	before := delivered.Load()
	runtime.WaitFor(t, 5*time.Second, "positions from the GPS branch while degraded", func() bool {
		return delivered.Load() >= before+3
	})
	if got := s.Provider().Availability(); got != positioning.TemporarilyUnavailable {
		t.Fatalf("availability while degraded = %v, want TemporarilyUnavailable", got)
	}

	// Phase 3: the sensor heals. The graph's backoff restart revives the
	// source, the breaker closes, the supervisor restores the fusion
	// edge, and the provider turns available again.
	wifiChaos.Heal()
	runtime.WaitFor(t, 5*time.Second, "provider to recover", func() bool {
		return s.Provider().Availability() == positioning.Available &&
			!s.Supervisor().Degraded()
	})
	if h, ok := s.Monitor().Health("wifi"); !ok || h.State != health.StateHealthy {
		t.Fatalf("wifi health after heal = %+v, want healthy", h)
	}
	after := delivered.Load()
	runtime.WaitFor(t, 5*time.Second, "fused positions after recovery", func() bool {
		return delivered.Load() >= after+3
	})

	// Stop returns the errors the injected outage produced — expected.
	_ = s.Stop()

	availMu.Lock()
	got := append([]positioning.Availability(nil), transitions...)
	availMu.Unlock()
	want := []positioning.Availability{positioning.TemporarilyUnavailable, positioning.Available}
	if len(got) < len(want) {
		t.Fatalf("availability transitions = %v, want at least %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("availability transitions = %v, want prefix %v", got, want)
		}
	}
}
