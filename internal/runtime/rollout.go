package runtime

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file is the fleet-wide adaptation driver: Rollout migrates every
// live session from the active revision to a target revision of the
// manager's BlueprintSet through a canary → gate → ramp state machine,
// rolling the canaries back when the observability gate trips. Each
// individual session migration goes through Session.migrate — the
// pause seam Adapt uses — so sessions keep serving throughout and a
// failed per-session migration leaves that session on its old revision
// with state restored.

// ErrRolloutRolledBack is returned (wrapped, with the gate's reason) by
// Rollout when the canary gate trips and the canaries were reverted.
var ErrRolloutRolledBack = errors.New("runtime: rollout rolled back")

// GateConfig bounds what the canary cohort may do to the watched nodes'
// error counters during the canary window before the ramp is allowed.
// The gate watches the revision diff's Added ∪ Replaced components: the
// nodes that exist (or changed) only because of the new revision, so
// their deltas are attributable to the canaries.
type GateConfig struct {
	// MaxErrors is the maximum tolerated increase, summed across watched
	// nodes, of the per-node Errors counter over the canary window.
	// Exceeding it trips the gate. 0 means any new error trips.
	MaxErrors uint64
}

// rolloutConcurrency bounds parallel per-session migrations.
const rolloutConcurrency = 8

// RolloutConfig parameterises one Manager.Rollout run.
type RolloutConfig struct {
	// To is the target revision. Required.
	To int
	// CanaryFraction is the fraction of live sessions migrated first
	// (deterministically: the sorted-ID prefix). Clamped to (0,1];
	// 0 defaults to 0.05. At least one session canaries when any exist.
	CanaryFraction float64
	// CanaryWindow is how long the canaries run before the gate is
	// evaluated. 0 skips the soak (the gate still samples, so a
	// migration-time error burst is caught).
	CanaryWindow time.Duration
	// Gate bounds the canary cohort's observed behavior. With no
	// Observability hub configured the rollout is ungated: canaries
	// always pass.
	Gate GateConfig
	// Log, when set, receives human-readable progress lines.
	Log func(format string, args ...any)
}

// RolloutReport summarises a finished Rollout.
type RolloutReport struct {
	From, To   int
	Sessions   int    // live sessions when the rollout began
	Canaries   int    // sessions in the canary cohort
	Upgraded   int    // sessions migrated to To (canaries included)
	Reverted   int    // canaries migrated back after a gate trip
	Failed     int    // sessions whose migration errored (left on From)
	RolledBack bool   // the gate tripped and the rollout was undone
	Reason     string // why the gate tripped (empty on success)
}

// Rollout migrates the live fleet from the active revision to cfg.To:
// a deterministic canary cohort first, then — after the canary window
// passes the observability gate — the active revision moves forward and
// the remainder ramps with up to 8 migrations in parallel, sweeping
// sessions created mid-ramp until the fleet converges. A tripped gate
// migrates the canaries back and returns ErrRolloutRolledBack with the
// report; the active revision never moved, so no session is left ahead
// of it.
// Rollouts are serialized; ctx cancellation aborts between batches.
func (m *Manager) Rollout(ctx context.Context, cfg RolloutConfig) (RolloutReport, error) {
	m.rolloutMu.Lock()
	defer m.rolloutMu.Unlock()

	from := m.ActiveRevision()
	rep := RolloutReport{From: from, To: cfg.To}
	if _, err := m.set.Revision(cfg.To); err != nil {
		return rep, err
	}
	if cfg.To == from {
		return rep, nil
	}
	diff, err := m.set.Diff(from, cfg.To)
	if err != nil {
		return rep, err
	}

	hub := m.cfg.Observability
	if hub != nil {
		hub.RolloutsStarted.Inc()
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	ids := m.IDs() // sorted
	rep.Sessions = len(ids)
	canaries := ids[:canaryCount(len(ids), cfg.CanaryFraction)]
	rep.Canaries = len(canaries)
	logf("rollout %s %d->%d: %d sessions, %d canaries",
		m.set.Name(), from, cfg.To, len(ids), len(canaries))

	watch := append(append([]string{}, diff.Added...), diff.Replaced...)
	sort.Strings(watch)

	before := m.sampleGate(watch)
	up, failed := m.migrateBatch(ctx, canaries, cfg.To, false)
	rep.Upgraded += up
	rep.Failed += failed

	if err := soak(ctx, cfg.CanaryWindow); err != nil {
		rep.RolledBack, rep.Reason = true, "canceled during canary window"
		rep.Reverted = m.revertCanaries(canaries, from)
		rep.Upgraded -= rep.Reverted
		if hub != nil {
			hub.RolloutsRolledBack.Inc()
		}
		return rep, errors.Join(ErrRolloutRolledBack, err)
	}
	if reason := m.checkGate(cfg.Gate, watch, before); reason != "" {
		logf("rollout gate tripped: %s", reason)
		rep.RolledBack, rep.Reason = true, reason
		rep.Reverted = m.revertCanaries(canaries, from)
		rep.Upgraded -= rep.Reverted
		if hub != nil {
			hub.RolloutsRolledBack.Inc()
		}
		return rep, fmt.Errorf("%w: %s", ErrRolloutRolledBack, reason)
	}

	// Canaries passed: new sessions instantiate the target revision from
	// here on, and the rest of the fleet ramps. Sessions created in the
	// window between IDs() and SetActiveRevision are caught by the
	// straggler sweep below.
	if err := m.SetActiveRevision(cfg.To); err != nil {
		return rep, err
	}
	logf("rollout ramping: active revision now %d", cfg.To)

	rest := ids[len(canaries):]
	up, failed = m.migrateBatch(ctx, rest, cfg.To, false)
	rep.Upgraded += up
	rep.Failed += failed

	// Straggler sweep: sessions created on the old revision while the
	// ramp ran. Bounded passes — each pass only sees sessions that
	// raced the previous one, so the set shrinks fast.
	for pass := 0; pass < 3; pass++ {
		stragglers := m.sessionsOnRevision(from)
		if len(stragglers) == 0 {
			break
		}
		logf("rollout sweep %d: %d stragglers", pass+1, len(stragglers))
		up, failed = m.migrateBatch(ctx, stragglers, cfg.To, false)
		rep.Upgraded += up
		rep.Failed += failed
		if err := ctx.Err(); err != nil {
			return rep, err
		}
	}

	if hub != nil {
		hub.RolloutsCompleted.Inc()
	}
	logf("rollout complete: %d upgraded, %d failed", rep.Upgraded, rep.Failed)
	return rep, nil
}

// canaryCount sizes the canary cohort: max(1, frac×n), default 5%.
func canaryCount(n int, frac float64) int {
	if n == 0 {
		return 0
	}
	if frac <= 0 {
		frac = 0.05
	}
	if frac > 1 {
		frac = 1
	}
	c := int(frac * float64(n))
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}

// soak waits out the canary window, aborting on ctx cancellation.
func soak(ctx context.Context, window time.Duration) error {
	if window <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(window)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// sampleGate captures the watched nodes' error counters. Returns an
// empty sample when unobserved.
func (m *Manager) sampleGate(nodes []string) map[string]uint64 {
	s := make(map[string]uint64, len(nodes))
	hub := m.cfg.Observability
	if hub == nil {
		return s
	}
	for _, id := range nodes {
		s[id] = hub.Node(id).Errors.Value()
	}
	return s
}

// checkGate evaluates the canary window's error deltas against the
// gate, returning a non-empty reason when it trips. No hub → no gate.
func (m *Manager) checkGate(gate GateConfig, nodes []string, before map[string]uint64) string {
	hub := m.cfg.Observability
	if hub == nil {
		return ""
	}
	after := m.sampleGate(nodes)
	var errDelta uint64
	for _, id := range nodes {
		if d := after[id] - before[id]; d <= after[id] {
			errDelta += d
		}
	}
	if errDelta > gate.MaxErrors {
		return fmt.Sprintf("errors +%d > max %d on watched nodes", errDelta, gate.MaxErrors)
	}
	return ""
}

// migrateBatch migrates the given sessions to rev, rolloutConcurrency
// at a time, returning (migrated, failed). Sessions that vanished or
// closed mid-rollout are skipped silently — eviction is not a rollout
// failure. revert marks the migrations as canary reversions for the
// rollout counters.
func (m *Manager) migrateBatch(ctx context.Context, ids []string, rev int, revert bool) (migrated, failed int) {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		sem  = make(chan struct{}, rolloutConcurrency)
		hub  = m.cfg.Observability
		done = ctx.Done()
	)
	for _, id := range ids {
		select {
		case <-done:
			wg.Wait()
			return migrated, failed
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			defer func() { <-sem }()
			ok, err := m.migrateSession(id, rev, revert)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				failed++
				if hub != nil {
					hub.RolloutFailed.Inc()
				}
			case ok:
				migrated++
			}
		}(id)
	}
	wg.Wait()
	return migrated, failed
}

// migrateSession migrates one live session to rev, moving its
// per-revision live gauge and counting the outcome. Returns (false,
// nil) when the session is gone or already there — not a failure.
func (m *Manager) migrateSession(id string, rev int, revert bool) (bool, error) {
	s, ok := m.Get(id)
	if !ok {
		return false, nil
	}
	from := s.Revision()
	if from == rev {
		return false, nil
	}
	if err := s.migrate(m.set, rev); err != nil {
		if errors.Is(err, ErrClosed) {
			return false, nil // evicted mid-rollout
		}
		return false, err
	}
	if hub := m.cfg.Observability; hub != nil {
		hub.RevisionLive(from).Dec()
		hub.RevisionLive(rev).Inc()
		if revert {
			hub.RolloutReverted.Inc()
		} else {
			hub.RolloutUpgraded.Inc()
		}
	}
	return true, nil
}

// revertCanaries migrates the canary cohort back to the old revision
// after a gate trip. Runs ungated and without ctx — a rollback must
// finish even when the rollout's context died.
func (m *Manager) revertCanaries(ids []string, from int) int {
	reverted, _ := m.migrateBatch(context.Background(), ids, from, true)
	return reverted
}

// sessionsOnRevision returns the sorted IDs of live sessions currently
// on the given revision.
func (m *Manager) sessionsOnRevision(rev int) []string {
	var out []string
	m.mu.RLock()
	for id, s := range m.sessions {
		if s.Revision() == rev {
			out = append(out, id)
		}
	}
	m.mu.RUnlock()
	sort.Strings(out)
	return out
}
