package runtime

import (
	"fmt"
	"time"

	"perpos/internal/checkpoint"
	"perpos/internal/positioning"
)

// This file is the durability seam of the session layer: sessions
// checkpoint their PSL state (component state, logical clocks, span
// bookkeeping) plus the provider's JSR-179 availability into the
// configured checkpoint.Store, and the manager resumes evicted or
// crashed sessions from the newest surviving record. Graph STRUCTURE is
// never checkpointed — the shared Blueprint rebuilds it — so resumed
// sessions always run the current pipeline definition with the old
// state rehydrated onto matching node IDs (state for since-removed
// nodes is skipped by core.Graph.RestoreState).

// Checkpoint captures the session's state and appends it durably,
// returning the record's sequence number. Snapshots need a quiescent
// graph, so the capture runs through the pause seam edits use: inside
// the runner's Pause on a started session, under the run lock on a
// Step/Run-driven one. Fails with ErrNoCheckpoints when the manager
// has no store.
func (s *Session) Checkpoint() (uint64, error) {
	if s.store == nil {
		return 0, ErrNoCheckpoints
	}
	var seq uint64
	err := s.pauseAndRun(func() error {
		var err error
		seq, err = s.appendSnapshot()
		return err
	})
	return seq, err
}

// appendSnapshot captures the quiescent graph and appends one record.
// A capture failure is counted on the hub here; the store's OnAppend
// counts its own failures.
func (s *Session) appendSnapshot() (uint64, error) {
	gs, err := s.graph.SnapshotState()
	if err != nil {
		if s.metrics != nil {
			s.metrics.CheckpointErrors.Inc()
		}
		return 0, fmt.Errorf("runtime: checkpoint session %q: %w", s.id, err)
	}
	return s.store.Append(checkpoint.SessionState{
		SessionID:    s.id,
		Taken:        s.clock(),
		Graph:        gs,
		Availability: int(s.provider.Availability()),
		Revision:     s.Revision(),
	})
}

// checkpointLoop periodically checkpoints a running session until its
// stop channel closes, and closes done on exit. Errors are counted, not
// returned: a failed periodic checkpoint leaves the previous record in
// place, and the evict-time checkpoint still runs.
func (s *Session) checkpointLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(s.ckptEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_, _ = s.Checkpoint()
		}
	}
}

// Checkpoints returns the manager's checkpoint store (nil when
// checkpointing is disabled).
func (m *Manager) Checkpoints() *checkpoint.Store { return m.cfg.Checkpoints }

// ResumeSession rebuilds the target's session from its newest durable
// checkpoint: the blueprint is instantiated into a fresh, structurally
// current graph, then component state, logical clocks and the
// provider's availability are rehydrated. A torn journal tail is
// transparently skipped by the store (recovery falls back to the last
// intact record or the snapshot file). Returns the live session
// unchanged when the target is already tracked, and
// checkpoint.ErrNoState when nothing durable exists for it.
func (m *Manager) ResumeSession(id string) (*Session, error) {
	store := m.cfg.Checkpoints
	if store == nil {
		return nil, ErrNoCheckpoints
	}
	state, err := store.Load(id)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.sessions[id]; ok {
		s.touch()
		return s, nil
	}
	// Resume always rehydrates onto the ACTIVE revision, not the one
	// the checkpoint was captured at: state for nodes absent from the
	// active layout is skipped by RestoreState, so a checkpoint taken
	// before a rollout resumes cleanly after it.
	rev, bp, err := m.activeBlueprint()
	if err != nil {
		return nil, err
	}
	s, err := newSession(id, rev, bp, m.cfg, m.clock)
	if err != nil {
		return nil, err
	}
	if err := s.graph.RestoreState(state.Graph); err != nil {
		s.close(false)
		return nil, fmt.Errorf("runtime: resume session %q: %w", id, err)
	}
	s.provider.SetAvailability(positioning.Availability(state.Availability))
	m.sessions[id] = s
	m.noteCreated(rev, true)
	return s, nil
}
