package runtime

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"perpos/internal/checkpoint"
	"perpos/internal/geo"
	"perpos/internal/positioning"
)

// localOf projects a delivered position into the test origin's frame.
func localOf(p positioning.Position) geo.ENU {
	if p.HasLocal {
		return p.Local
	}
	return geo.NewProjection(testOrigin).ToLocal(p.Global)
}

// TestEvictResumeContinuity: a step-driven GPS session is evicted
// (which checkpoints) and resumed — component state, logical clocks and
// the position stream must continue, not restart.
func TestEvictResumeContinuity(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := gpsSessionConfig(t)
	cfg.Checkpoints = store
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	s, err := m.GetOrCreate("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	posBefore, ok := s.Provider().Last()
	if !ok {
		t.Fatal("no position before eviction")
	}
	nBefore, _ := s.Graph().Node("interpreter")
	clockBefore := nBefore.Clock()
	if clockBefore == 0 {
		t.Fatal("interpreter never emitted before eviction")
	}

	if !m.Evict("alice") {
		t.Fatal("evict found no session")
	}
	if m.Len() != 0 {
		t.Fatalf("manager still tracks %d sessions", m.Len())
	}

	s2, err := m.ResumeSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if s2 == s {
		t.Fatal("resume returned the evicted session")
	}
	n2, _ := s2.Graph().Node("interpreter")
	if n2.Clock() != clockBefore {
		t.Fatalf("resumed interpreter clock = %d, want %d", n2.Clock(), clockBefore)
	}
	if got := s2.Provider().Availability(); got != positioning.Available {
		t.Fatalf("resumed availability = %v, want Available", got)
	}

	// The resumed source continues mid-trace: the next position is one
	// epoch of walking away from the last pre-evict fix, not back at the
	// start of the trace.
	for i := 0; i < 5; i++ {
		if _, err := s2.Step(); err != nil {
			t.Fatal(err)
		}
		if _, ok := s2.Provider().Last(); ok {
			break
		}
	}
	posAfter, ok := s2.Provider().Last()
	if !ok {
		t.Fatal("no position after resume")
	}
	if d := localOf(posAfter).Distance(localOf(posBefore)); d > 25 {
		t.Errorf("first resumed fix %.1f m from last pre-evict fix, want continuity (<= 25 m)", d)
	}
	// Logical time is monotonic across the resume: the interpreter's
	// clock continues past the checkpointed value, never restarts.
	if n2.Clock() <= clockBefore {
		t.Errorf("resumed interpreter clock = %d, want > %d (monotonic)", n2.Clock(), clockBefore)
	}
}

// TestResumeFromCorruptedTail: the newest journal record is damaged on
// disk; resume must fall back to the last good checkpoint (the manual
// mid-run one), not fail.
func TestResumeFromCorruptedTail(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.Open(dir, checkpoint.Options{SnapshotEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpsSessionConfig(t)
	cfg.Checkpoints = store
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}

	s, err := m.GetOrCreate("bob")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	nMid, _ := s.Graph().Node("interpreter")
	clockMid := nMid.Clock()
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	m.Evict("bob") // appends the final (newer) record
	m.Close()
	store.Close()

	// Damage the final record's payload.
	path := filepath.Join(dir, "bob.journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) - 8; i < len(data); i++ {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	cfg2 := gpsSessionConfig(t)
	cfg2.Checkpoints = store2
	m2, err := NewManager(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	s2, err := m2.ResumeSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := s2.Graph().Node("interpreter")
	if n2.Clock() != clockMid {
		t.Fatalf("resumed from corrupted tail: interpreter clock = %d, want %d (the mid-run checkpoint)", n2.Clock(), clockMid)
	}
}

// TestResumeUnknownSession: nothing durable means checkpoint.ErrNoState.
func TestResumeUnknownSession(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := gpsSessionConfig(t)
	cfg.Checkpoints = store
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.ResumeSession("ghost"); !errors.Is(err, checkpoint.ErrNoState) {
		t.Fatalf("ResumeSession = %v, want ErrNoState", err)
	}
	if _, ok := m.Get("ghost"); ok {
		t.Fatal("failed resume registered a session")
	}
}

// TestCheckpointUnconfigured: both seams fail cleanly without a store.
func TestCheckpointUnconfigured(t *testing.T) {
	m, err := NewManager(gpsSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.GetOrCreate("carol")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); !errors.Is(err, ErrNoCheckpoints) {
		t.Fatalf("Checkpoint = %v, want ErrNoCheckpoints", err)
	}
	if _, err := m.ResumeSession("carol"); !errors.Is(err, ErrNoCheckpoints) {
		t.Fatalf("ResumeSession = %v, want ErrNoCheckpoints", err)
	}
}
