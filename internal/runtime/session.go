// Package runtime is the multi-tenant session layer between the shared
// pipeline blueprints and the Positioning Layer: one pipeline instance
// per tracked target, spun up on demand from a shared core.Blueprint,
// with the immutable deps (building model, fingerprint database,
// catalog registrations) captured once in the blueprint's factories and
// shared by every instance. Sessions are adapted individually through
// the PSL/PCL — the translucency story of the paper applied per target
// — and evicted when tracking stops.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"perpos/internal/channel"
	"perpos/internal/checkpoint"
	"perpos/internal/core"
	"perpos/internal/health"
	"perpos/internal/obs"
	"perpos/internal/positioning"
	"perpos/internal/rules"
)

// Errors returned by sessions and the manager.
var (
	// ErrClosed indicates use of an evicted session.
	ErrClosed = errors.New("runtime: session closed")
	// ErrNoBlueprint indicates a manager configured without a blueprint.
	ErrNoBlueprint = errors.New("runtime: config needs a blueprint")
	// ErrNoCheckpoints indicates a checkpoint operation on a manager or
	// session configured without a checkpoint store.
	ErrNoCheckpoints = errors.New("runtime: checkpointing not configured")
)

// SessionConfig describes how the manager turns the shared blueprint
// into one session per target.
type SessionConfig struct {
	// Blueprint is the shared pipeline structure every session
	// instantiates. Its factories close over the immutable shared deps.
	// Internally the manager wraps it into a single-revision
	// BlueprintSet; set Blueprints instead to run a versioned fleet.
	Blueprint *core.Blueprint
	// Blueprints is the versioned alternative to Blueprint: a named set
	// of revisions new sessions instantiate at the manager's active
	// revision, and Manager.Rollout migrates live sessions between.
	// Takes precedence over Blueprint when both are set.
	Blueprints *core.BlueprintSet
	// InitialRevision selects the revision new sessions start on
	// (0 = the set's latest at manager construction). Manager.Rollout
	// moves the active revision as it ramps.
	InitialRevision int
	// Overrides supplies the per-session instantiate options — typically
	// core.WithComponentOverride for the blueprint's sensor placeholders,
	// seeded or bound per target. May be nil when the blueprint has no
	// placeholders beyond the sink. The manager's own override of the
	// "app" slot, which terminates the pipeline with the session's
	// positioning.Provider sink, is applied last and wins.
	Overrides func(sessionID string) []core.InstantiateOption
	// Provider describes each session's provider for criteria matching.
	Provider positioning.ProviderInfo
	// History bounds the channel layer's per-component sample history
	// (0 keeps channel.NewLayer's default). Multi-tenant deployments
	// want this small: history is the dominant per-session allocation.
	// Channel.LastTree rebuilds a delivery's data tree from this
	// history, so contributions it has evicted are missing there.
	History int
	// Health enables per-session supervision: a health.Monitor observes
	// the session's graph on either engine, and a health.Supervisor
	// sweeps its breakers, restarts failed sources with backoff, and
	// drives the provider's JSR-179 availability state. Nil disables
	// supervision (no overhead).
	Health *health.Policy
	// Reroutes are the degradation rules the supervisor applies through
	// the session's own PSL graph when a watched node trips its breaker
	// (requires Health).
	Reroutes []health.Reroute
	// Checkpoints enables durable session state: evict-time and manual
	// checkpoints are appended to this store, and Manager.ResumeSession
	// rehydrates sessions from it. Nil disables checkpointing.
	Checkpoints *checkpoint.Store
	// CheckpointEvery additionally checkpoints running (async) sessions
	// on this period; 0 disables the periodic checkpoints (evict-time
	// and manual checkpoints still happen).
	CheckpointEvery time.Duration
	// Observability wires every session into a shared metrics hub:
	// emission taps, per-node errors and sampled process latency,
	// data-tree depths, provider availability transitions, supervisor
	// reroute counts and session lifecycle counters. Nil disables
	// instrumentation entirely — no hooks are installed and the hot
	// path is untouched.
	Observability *obs.Metrics
	// Rules enables declarative self-adaptation: each session gets a
	// rules.Engine evaluating the rule set on the supervisor sweep and
	// applying reversible graph edits between source steps through the
	// session's own pause seam. A session with rules always runs a
	// monitor and supervisor (with the default health.Policy when
	// Health is nil) so the sweep exists to piggyback on.
	Rules []rules.Rule
}

// sinkID is the placeholder slot every session terminates with its
// positioning.Provider sink.
const sinkID = "app"

// Session is one target's live pipeline: a private graph instantiated
// from the shared blueprint, its channel-layer view, and the provider
// the Positioning Layer hands to applications.
type Session struct {
	id       string
	graph    *core.Graph
	layer    *channel.Layer
	provider *positioning.Provider

	// instOpts rebuilds the per-session instantiate options (overrides
	// + sink binding) — needed again at migration time, when changed
	// placeholder slots of the new revision are re-resolved.
	instOpts func() []core.InstantiateOption

	monitor    *health.Monitor
	supervisor *health.Supervisor
	// observeCancel unregisters the session's one graph observer: the
	// metrics hub's GraphObserver wrapping the monitor, or either alone.
	observeCancel func()
	// hubObserver is that GraphObserver when a hub is wired; close
	// folds its emission counts into the hub.
	hubObserver *obs.GraphObserver

	rules          *rules.Engine
	rulesTapCancel func()

	metrics     *obs.Metrics
	availCancel func()

	store     *checkpoint.Store
	ckptEvery time.Duration

	// runMu serialises propagation (Run/Step, and the graph's Start and
	// Stop) against supervisor-applied graph edits and close. Lock
	// order: runMu → mu.
	runMu sync.Mutex

	mu sync.Mutex
	// ckpt is the periodic checkpoint job of the latest Start.
	ckpt   *core.Job
	closed bool
	rev    int
}

// newSession instantiates revision rev of the manager's blueprint set
// into a fresh session.
func newSession(id string, rev int, bp *core.Blueprint, cfg SessionConfig) (*Session, error) {
	s := &Session{
		id:        id,
		rev:       rev,
		store:     cfg.Checkpoints,
		ckptEvery: cfg.CheckpointEvery,
	}
	// The provider's feature lookup goes through the session's channel
	// layer, so Channel Features installed per session stay reachable
	// from the Positioning Layer (translucency per target).
	s.provider = positioning.NewProvider(id, cfg.Provider, s.feature)

	s.instOpts = func() []core.InstantiateOption {
		var opts []core.InstantiateOption
		if cfg.Overrides != nil {
			opts = cfg.Overrides(id)
		}
		return append(opts, core.WithComponentOverride(sinkID, func(cid string) core.Component {
			return positioning.NewProviderSink(cid, s.provider)
		}))
	}
	g, err := bp.Instantiate(s.instOpts()...)
	if err != nil {
		return nil, fmt.Errorf("runtime: session %q: %w", id, err)
	}
	var layerOpts []channel.LayerOption
	if cfg.History > 0 {
		layerOpts = append(layerOpts, channel.WithHistory(cfg.History))
	}
	if m := cfg.Observability; m != nil {
		layerOpts = append(layerOpts, channel.WithTreeObserver(func(_ *channel.Channel, t *channel.DataTree) {
			m.ObserveTreeDepth(t.Depth())
		}))
	}
	s.graph = g
	s.layer = channel.NewLayer(g, layerOpts...)

	// Rules need a supervisor sweep to piggyback on, so a rule-bearing
	// session gets the default supervision policy even without Health.
	if cfg.Health != nil || len(cfg.Rules) > 0 {
		pol := health.Policy{}
		if cfg.Health != nil {
			pol = *cfg.Health
		}
		s.monitor = health.NewMonitor(pol)
		s.supervisor = health.NewSupervisor(s.monitor, s.applyEdit, cfg.Reroutes)
		// Supervisor events drive the provider's JSR-179 state: any open
		// breaker makes the provider temporarily unavailable; all clear
		// makes it available again. Runs on the supervisor goroutine.
		s.supervisor.OnEvent(func(health.Event) {
			if s.monitor.AnyDown() {
				s.provider.SetAvailability(positioning.TemporarilyUnavailable)
			} else {
				s.provider.SetAvailability(positioning.Available)
			}
		})
	}
	if len(cfg.Rules) > 0 {
		// Built before anything registers with the hub, so an invalid
		// rule set leaves no observer behind.
		eng, err := rules.New(rules.Config{
			Rules:   cfg.Rules,
			Adapter: s.applyEdit,
			Monitor: s.monitor,
			Claimer: s.supervisor,
		})
		if err != nil {
			return nil, fmt.Errorf("runtime: session %q: %w", id, err)
		}
		s.rules = eng
	}
	var observer core.Observer
	if s.monitor != nil {
		observer = s.monitor
	}
	if m := cfg.Observability; m != nil {
		s.metrics = m
		s.hubObserver = obs.NewGraphObserver(m, observer)
		observer = s.hubObserver
		s.availCancel = s.provider.NotifyAvailability(func(a positioning.Availability) {
			m.ProviderTransition(a.String())
		})
		if s.supervisor != nil {
			s.supervisor.OnReroute(func(engaged bool) {
				if engaged {
					m.SupervisorEngaged.Inc()
				} else {
					m.SupervisorDisengaged.Inc()
				}
			})
		}
	}
	if observer != nil {
		s.observeCancel = g.Observe(observer)
	}
	if eng := s.rules; eng != nil {
		if eng.NeedsTap() {
			s.rulesTapCancel = g.Tap(eng.Tap)
		}
		// Evaluation rides the supervisor sweep, after the supervisor
		// has reconciled its own reroutes — rules see the claims of the
		// same instant and always yield to them.
		s.supervisor.OnSweep(eng.Sweep)
		if m := cfg.Observability; m != nil {
			eng.OnEvent(func(ev rules.Event) {
				switch ev.Type {
				case rules.EventEngaged:
					m.RulesEngaged.Inc()
				case rules.EventDisengaged:
					m.RulesDisengaged.Inc()
				case rules.EventQuarantined:
					m.RulesQuarantined.Inc()
				case rules.EventRolledBack:
					m.RulesRolledBack.Inc()
				case rules.EventDeferred:
					m.RulesDeferred.Inc()
				}
			})
		}
	}
	return s, nil
}

// Graph returns the session's private pipeline instance.
func (s *Session) Graph() *core.Graph { return s.graph }

// Provider returns the provider delivering this session's positions.
func (s *Session) Provider() *positioning.Provider { return s.provider }

// feature resolves a named feature through the channel delivering into
// the session's sink — the provider's FeatureLookup.
func (s *Session) feature(name string) (any, bool) {
	if c, ok := s.layer.ChannelInto(sinkID, 0); ok {
		if f, ok := c.Feature(name); ok {
			return f, true
		}
	}
	// Fall back to any channel in the session (merge inputs etc.).
	for _, c := range s.layer.Channels() {
		if f, ok := c.Feature(name); ok {
			return f, true
		}
	}
	return nil, false
}

// Adapt applies a structural or feature change to this session only —
// the per-target PSL seam. On a started session fn runs inside the
// graph's Pause, between source steps. The channel layer is refreshed
// afterwards so Channel Features survive the edit. Like Checkpoint, it
// must not be called from a provider subscriber or anything else a
// source step runs.
func (s *Session) Adapt(fn func(g *core.Graph, l *channel.Layer) error) error {
	return s.applyEdit(func(g *core.Graph) error { return fn(g, s.layer) })
}

// Monitor returns the session's health monitor (nil when supervision
// is disabled).
func (s *Session) Monitor() *health.Monitor { return s.monitor }

// Supervisor returns the session's supervisor (nil when supervision is
// disabled).
func (s *Session) Supervisor() *health.Supervisor { return s.supervisor }

// Rules returns the session's self-adaptation engine (nil when no
// rules are configured).
func (s *Session) Rules() *rules.Engine { return s.rules }

// pauseAndRun is the one seam for edits, checkpoints and migrations:
// under the run lock, so no Run or StepN batch interleaves, fn runs
// inside the graph's Pause, between source steps on a started session.
func (s *Session) pauseAndRun(fn func() error) error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return s.graph.Pause(fn)
}

// applyEdit is the edit path of Adapt and the supervisor's Adapter:
// apply the edit through the pause seam and refresh the channel layer.
// The supervisor calls it from its sweep job, never from inside a step.
func (s *Session) applyEdit(edit func(*core.Graph) error) error {
	return s.pauseAndRun(func() error {
		err := edit(s.graph)
		s.layer.Refresh()
		return err
	})
}

// Revision returns the blueprint revision the session currently runs.
func (s *Session) Revision() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rev
}

// migrate maps the session's live graph onto revision `to` of the set
// through the pause seam: the cached migration plan is applied in
// place (unchanged nodes keep their instances and state; changed
// subgraphs are re-instantiated with the session's own overrides), the
// channel layer refreshed, and the graph then drives the revision's
// sources. On a failed plan application the graph has already been
// rolled back to the old revision with state restored
// (core.MigrationPlan.Apply), so the session keeps serving either way.
func (s *Session) migrate(set *core.BlueprintSet, to int) error {
	return s.pauseAndRun(func() error {
		s.mu.Lock()
		from := s.rev
		s.mu.Unlock()
		if from == to {
			return nil
		}
		if err := set.Migrate(s.graph, from, to, s.instOpts()...); err != nil {
			s.layer.Refresh()
			return fmt.Errorf("runtime: migrate session %q %d->%d: %w", s.id, from, to, err)
		}
		s.layer.Refresh()
		s.mu.Lock()
		s.rev = to
		s.mu.Unlock()
		return nil
	})
}

// Run drives the session synchronously until its sources are exhausted
// (or maxTicks), returning the number of source steps taken. Propagation
// holds the run lock, so supervisor edits never interleave a tick. A
// started session's graph steps its sources, so Run fails with
// core.ErrRunning until Stop.
func (s *Session) Run(maxTicks int) (int, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if err := s.stepGuard(); err != nil {
		return 0, err
	}
	return s.graph.Run(maxTicks)
}

// stepGuard admits a Run or StepN that steps the sources itself: it
// fails with ErrClosed on a closed session. The caller holds the run
// lock, which close takes too.
func (s *Session) stepGuard() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return nil
}

// Step advances every source in the session by one sample.
func (s *Session) Step() (bool, error) {
	return s.StepN(1)
}

// StepN advances every source in the session n times under a single
// lock acquisition, amortizing the per-step run-lock cost — the
// batched drive loop for saturated (unpaced) workloads. It
// stops early once the sources are exhausted. Supervisor edits never
// interleave a batch: like Run, propagation holds the run lock. Like
// Run, it fails with core.ErrRunning on a started session until Stop.
func (s *Session) StepN(n int) (bool, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if err := s.stepGuard(); err != nil {
		return false, err
	}
	more := true
	for i := 0; i < n && more; i++ {
		var err error
		more, err = s.graph.StepAll()
		if err != nil {
			return more, err
		}
	}
	return more, nil
}

// Start starts the session's graph, supervisor and checkpoint jobs. On
// a started session it fails with core.ErrRunning.
func (s *Session) Start(ctx context.Context, opts ...core.StartOption) error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.monitor != nil {
		opts = append(opts, core.WithSourceRestart(s.monitor.Policy().Restart))
	}
	if err := s.graph.Start(ctx, opts...); err != nil {
		return err
	}
	if s.supervisor != nil {
		s.supervisor.Start(ctx)
	}
	if s.store != nil && s.ckptEvery > 0 {
		// A failed periodic checkpoint is counted and leaves the
		// previous record in place; the evict-time one still runs.
		origin := time.Now()
		s.ckpt = core.Every(context.Background(), origin.Add(s.ckptEvery), func(now time.Time) (time.Time, bool) {
			_, _ = s.Checkpoint()
			return core.NextDue(origin, s.ckptEvery, now), true
		})
	}
	return nil
}

// Stop halts the session's supervisor, checkpoint job and graph,
// returning the errors the graph collected while started.
func (s *Session) Stop() error {
	_, err := s.halt(false)
	return err
}

// halt is the one stop sequence. The supervisor's sweeps and the
// periodic checkpoints stop first, each once a call in flight has
// returned: either may be inside a pause, which needs the run lock, and
// a checkpoint after the graph stopped would record a stopped session.
// Then, holding the run lock so no Run, StepN or pause is in flight, it
// stops the graph and marks the session closed when closing. It
// reports false when the session was already closed.
func (s *Session) halt(closing bool) (bool, error) {
	if s.supervisor != nil {
		s.supervisor.Stop()
	}
	s.mu.Lock()
	ckpt := s.ckpt
	s.ckpt = nil
	s.mu.Unlock()
	ckpt.Stop()
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, nil
	}
	s.closed = closing
	s.mu.Unlock()
	return true, s.graph.Stop()
}

// close tears the session down: the supervisor and graph are stopped,
// the state the session dies with is checkpointed when final is set and
// a store is configured, the channel layer is detached, and the
// provider retired to OutOfService. It waits for an in-flight Run,
// StepN or pause to finish, so nothing is delivered once it returns and
// later calls get ErrClosed. Idempotent.
func (s *Session) close(final bool) {
	if ok, _ := s.halt(true); !ok {
		return
	}
	if final && s.store != nil {
		// Best effort: appendSnapshot counts a failure, and the previous
		// periodic record (if any) stays recoverable.
		_, _ = s.appendSnapshot()
	}
	if s.observeCancel != nil {
		s.observeCancel()
	}
	if s.hubObserver != nil {
		// The graph has emitted for the last time.
		s.hubObserver.Close()
	}
	if s.rulesTapCancel != nil {
		s.rulesTapCancel()
	}
	s.layer.Close()
	s.provider.SetAvailability(positioning.OutOfService)
	if s.availCancel != nil {
		s.availCancel()
	}
}
