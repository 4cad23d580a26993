package runtime

import (
	"testing"

	"perpos/internal/checkpoint"
	"perpos/internal/obs"
)

// TestSessionObservability exercises the full metrics wiring through
// the session layer: lifecycle counters and the live gauge, emission
// taps, data-tree depth observation, provider availability transitions,
// checkpoint accounting, and resume counting.
func TestSessionObservability(t *testing.T) {
	hub := obs.New()
	cfg := gpsSessionConfig(t)
	cfg.Observability = hub
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{OnAppend: hub.CheckpointAppend})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg.Checkpoints = store

	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.GetOrCreate("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got := hub.SessionsCreated.Value(); got != 1 {
		t.Errorf("sessions created = %d, want 1", got)
	}
	if got := hub.SessionsLive.Value(); got != 1 {
		t.Errorf("sessions live = %d, want 1", got)
	}

	// Drive enough steps past the receiver's cold start for positions
	// (and so channel deliveries) to flow.
	for i := 0; i < 10; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if hub.SpansEmitted() == 0 {
		t.Error("no spans counted after stepping the session")
	}
	if got := hub.Emissions("gps"); got == 0 {
		t.Error("gps node emissions = 0 after stepping")
	}
	if hub.TreeDepth.Count() == 0 {
		t.Error("no data-tree depths observed")
	}

	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := hub.CheckpointWrites.Value(); got != 1 {
		t.Errorf("checkpoint writes = %d, want 1", got)
	}
	if hub.CheckpointBytes.Value() == 0 {
		t.Error("checkpoint bytes = 0 after a successful append")
	}

	if !m.Evict("alice") {
		t.Fatal("evict reported no session")
	}
	if got := hub.SessionsEvicted.Value(); got != 1 {
		t.Errorf("sessions evicted = %d, want 1", got)
	}
	if got := hub.SessionsLive.Value(); got != 0 {
		t.Errorf("sessions live after evict = %d, want 0", got)
	}
	// Eviction retires the provider, which is an availability
	// transition into OUT_OF_SERVICE.
	snap := hub.Snapshot()
	trans := snap["provider_transitions"].(map[string]uint64)
	if trans["OUT_OF_SERVICE"] == 0 {
		t.Errorf("provider transitions = %v, want OUT_OF_SERVICE counted", trans)
	}

	// Resume from the evict-time checkpoint: counted separately from
	// creation, and the live gauge comes back.
	if _, err := m.ResumeSession("alice"); err != nil {
		t.Fatal(err)
	}
	if got := hub.SessionsResumed.Value(); got != 1 {
		t.Errorf("sessions resumed = %d, want 1", got)
	}
	if got := hub.SessionsCreated.Value(); got != 1 {
		t.Errorf("sessions created after resume = %d, want still 1", got)
	}
	if got := hub.SessionsLive.Value(); got != 1 {
		t.Errorf("sessions live after resume = %d, want 1", got)
	}
	m.Close()
	if got := hub.SessionsLive.Value(); got != 0 {
		t.Errorf("sessions live after close = %d, want 0", got)
	}
}

// TestSessionWithoutObservability pins the zero-cost contract: no hub,
// no hooks — sessions run exactly as before.
func TestSessionWithoutObservability(t *testing.T) {
	m, err := NewManager(gpsSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.GetOrCreate("bob")
	if err != nil {
		t.Fatal(err)
	}
	if s.metrics != nil || s.observeCancel != nil {
		t.Error("observability hooks installed without a hub")
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
}
