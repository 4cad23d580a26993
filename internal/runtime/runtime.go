package runtime

import (
	"sort"
	"sync"
	"sync/atomic"

	"perpos/internal/core"
)

// Manager is the session registry: one Session per tracked target,
// all instantiated from the shared blueprint in its SessionConfig, in
// one map under one lock. It implements positioning.ReleasingSource,
// so binding it to a positioning.Manager (BindSource) makes Track spin
// up a pipeline instance and Untrack reclaim it.
//
// Lock order: the registry lock comes before a session's own locks,
// and no step or close of a registered session runs under it, so sources bound to a positioning.Manager cannot
// deadlock against it. Creation (GetOrCreate, ResumeSession) is the
// one long hold: a new session is built, and on resume rehydrated,
// under the write lock.
type Manager struct {
	cfg SessionConfig
	set *core.BlueprintSet

	// mu guards sessions: the live session of each tracked target.
	mu       sync.RWMutex
	sessions map[string]*Session

	// activeRev is the revision new sessions instantiate. Rollout moves
	// it when the ramp begins (forward) or the canary gate trips (back).
	activeRev atomic.Int64

	// rolloutMu serializes Rollout calls: two concurrent rollouts would
	// fight over the active revision and each other's canaries.
	rolloutMu sync.Mutex
}

// NewManager returns a session manager for the given config. A lone
// cfg.Blueprint is wrapped into a single-revision set, so every code
// path — including Rollout — sees versioned blueprints; cfg.Blueprints
// takes precedence when both are set.
func NewManager(cfg SessionConfig) (*Manager, error) {
	set := cfg.Blueprints
	if set == nil {
		if cfg.Blueprint == nil {
			return nil, ErrNoBlueprint
		}
		set = core.NewBlueprintSet("default")
		if _, err := set.Add(cfg.Blueprint); err != nil {
			return nil, err
		}
	}
	if set.Latest() == 0 {
		return nil, ErrNoBlueprint
	}
	m := &Manager{
		cfg:      cfg,
		set:      set,
		sessions: make(map[string]*Session),
	}
	initial := cfg.InitialRevision
	if initial == 0 {
		initial = set.Latest()
	}
	if _, err := set.Revision(initial); err != nil {
		return nil, err
	}
	m.activeRev.Store(int64(initial))
	return m, nil
}

// Blueprints returns the manager's revision set (a single-revision
// wrapper when the config supplied a lone Blueprint).
func (m *Manager) Blueprints() *core.BlueprintSet { return m.set }

// ActiveRevision returns the revision new sessions currently
// instantiate.
func (m *Manager) ActiveRevision() int { return int(m.activeRev.Load()) }

// SetActiveRevision points new sessions at the given revision. Live
// sessions are unaffected — Rollout migrates them.
func (m *Manager) SetActiveRevision(rev int) error {
	if _, err := m.set.Revision(rev); err != nil {
		return err
	}
	m.activeRev.Store(int64(rev))
	return nil
}

// activeBlueprint resolves the active revision to its blueprint.
func (m *Manager) activeBlueprint() (int, *core.Blueprint, error) {
	rev := m.ActiveRevision()
	bp, err := m.set.Revision(rev)
	if err != nil {
		return 0, nil, err
	}
	return rev, bp, nil
}

// noteCreated / noteRetired keep the hub's lifecycle counters, the
// live-session gauge and the per-revision gauges in step with the
// registry.
func (m *Manager) noteCreated(rev int, resumed bool) {
	hub := m.cfg.Observability
	if hub == nil {
		return
	}
	if resumed {
		hub.SessionsResumed.Inc()
	} else {
		hub.SessionsCreated.Inc()
	}
	hub.SessionsLive.Inc()
	hub.RevisionLive(rev).Inc()
}

func (m *Manager) noteRetired(rev int) {
	hub := m.cfg.Observability
	if hub == nil {
		return
	}
	hub.SessionsEvicted.Inc()
	hub.SessionsLive.Dec()
	hub.RevisionLive(rev).Dec()
}

// Get returns the live session for the target, if any.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.RLock()
	s, ok := m.sessions[id]
	m.mu.RUnlock()
	return s, ok
}

// GetOrCreate returns the target's session, instantiating the shared
// blueprint into a new one when the target is untracked. Creation runs
// under the registry's write lock, so concurrent callers for the same
// ID get the same session and the blueprint is instantiated exactly
// once per target.
func (m *Manager) GetOrCreate(id string) (*Session, error) {
	if s, ok := m.Get(id); ok {
		return s, nil
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.sessions[id]; ok {
		return s, nil
	}
	rev, bp, err := m.activeBlueprint()
	if err != nil {
		return nil, err
	}
	ns, err := newSession(id, rev, bp, m.cfg)
	if err != nil {
		return nil, err
	}
	m.sessions[id] = ns
	m.noteCreated(rev, false)
	return ns, nil
}

// Evict removes and closes the target's session, checkpointing its
// final state first when a checkpoint store is configured (so the
// target is resumable later via ResumeSession). The checkpoint and the
// close run outside the registry lock. It reports whether a session
// existed.
func (m *Manager) Evict(id string) bool {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	if !ok {
		return false
	}
	m.retire(s)
	return true
}

// retire closes an already-deregistered session with a final
// checkpoint. Runs outside all manager locks.
func (m *Manager) retire(s *Session) {
	s.close(true)
	m.noteRetired(s.Revision())
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.sessions)
}

// IDs returns the live session IDs, sorted.
func (m *Manager) IDs() []string {
	m.mu.RLock()
	out := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		out = append(out, id)
	}
	m.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Close evicts every session.
func (m *Manager) Close() {
	for _, id := range m.IDs() {
		m.Evict(id)
	}
}
