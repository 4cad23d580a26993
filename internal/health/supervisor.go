package health

import (
	"context"
	"fmt"
	"sync"
	"time"

	"perpos/internal/core"
)

// Adapter applies a structural edit to a pipeline's graph. The graph is
// frozen while it is started, so the owner (in practice runtime.Session)
// applies the edit inside the graph's Pause, between source steps, and
// refreshes the channel layer.
type Adapter func(edit func(*core.Graph) error) error

// Reroute is a degradation rule: when the watched node's breaker opens,
// Break is disconnected and Make is connected — the PSL adaptation that
// routes the pipeline around the failed branch. When the node recovers,
// the edit is reversed, restoring the full graph.
//
// Rules sharing the same Break edge form a conflict group: they are
// alternative routings of the same spot in the pipeline, so at most one
// of them is engaged at a time. Within a group the supervisor engages
// the best applicable rule — lowest Priority first, declaration order
// breaking ties — and switches rules atomically when breaker states
// change. That gives multi-failure scenarios a deterministic, ordered
// fallback: with both fusion branches down, the group's top-priority
// rule stays engaged rather than two rules fighting over the edge.
type Reroute struct {
	// Watch is the node whose breaker drives this rule.
	Watch string
	// Break is the edge removed while degraded (typically the failed
	// branch's hand-off into the fusion component, or the fusion
	// component's own output edge). Also the conflict-group key.
	Break core.Edge
	// Make is the edge added while degraded (the surviving branch's
	// bypass to the sink).
	Make core.Edge
	// Priority orders rules within a conflict group: lower engages
	// first when several rules' watches are down simultaneously. Equal
	// priorities fall back to declaration order, so the zero value keeps
	// the pre-priority behaviour deterministic.
	Priority int
}

// Supervisor closes the loop from health monitoring to adaptation: a
// sweep job (core.Every) periodically advances the monitor's breakers,
// applies the configured degradation reroutes through the Adapter, and
// notifies listeners of every transition. Listener callbacks and
// reroute edits run in the sweep job's calls. A sweep may run on the
// goroutine that ran a source step before it, but never inside a step:
// an edit pauses the graph, and a pause waits out the source steps in
// flight, so called from one it would wait for itself.
type Supervisor struct {
	mon      *Monitor
	adapter  Adapter
	reroutes []Reroute
	groups   [][]int // conflict groups: reroute indexes sharing a Break edge, in declaration order

	mu        sync.Mutex
	engaged   map[int]int // group index → engaged reroute index
	listeners []func(Event)
	onReroute []func(engaged bool)
	onSweep   []func(now time.Time)
	sweepBuf  []func(now time.Time) // reused snapshot; Sweep is single-goroutine
	// sweeper is the sweep job; nil while stopped.
	sweeper *core.Job
}

// NewSupervisor wires a supervisor over the monitor. adapter may be nil
// when no reroutes are configured. Every watched node named by a
// reroute is pre-registered with the monitor, and rules are partitioned
// into conflict groups by their Break edge.
func NewSupervisor(mon *Monitor, adapter Adapter, reroutes []Reroute) *Supervisor {
	s := &Supervisor{
		mon:      mon,
		adapter:  adapter,
		reroutes: reroutes,
		engaged:  make(map[int]int, len(reroutes)),
	}
	byBreak := make(map[core.Edge]int)
	for i, r := range reroutes {
		mon.Watch(r.Watch)
		gi, ok := byBreak[r.Break]
		if !ok {
			gi = len(s.groups)
			byBreak[r.Break] = gi
			s.groups = append(s.groups, nil)
		}
		s.groups[gi] = append(s.groups[gi], i)
	}
	return s
}

// OnEvent registers a listener for node transitions. Register before
// Start; callbacks run serially on the sweep job (or the Sweep
// caller).
func (s *Supervisor) OnEvent(fn func(Event)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	s.listeners = append(s.listeners, fn)
	s.mu.Unlock()
}

// OnReroute registers a listener for successful adaptation edits:
// engaged is true when a rule was engaged or switched, false when the
// pristine graph was restored. Unlike OnEvent it fires only when an
// edit actually landed, making it the natural seam for counting
// supervisor churn. Register before Start; callbacks run on the sweep
// job (or the Sweep caller).
func (s *Supervisor) OnReroute(fn func(engaged bool)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	s.onReroute = append(s.onReroute, fn)
	s.mu.Unlock()
}

// OnSweep registers a hook that runs at the end of every sweep, after
// breakers have advanced and reroutes have been reconciled — the seam
// the rules engine piggybacks on, so rule evaluation always sees the
// supervisor's claims for the same instant. Hooks run serially on the
// sweep job (or the Sweep caller) and may apply edits through the same
// adapter. Register before Start.
func (s *Supervisor) OnSweep(fn func(now time.Time)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	s.onSweep = append(s.onSweep, fn)
	s.mu.Unlock()
}

// ClaimedEdges appends the Break and Make edges of every reroute that
// is currently engaged or whose watched node is down — i.e. every edge
// the supervisor is using, or is about to use, for degradation routing
// — and returns the extended slice. The rules engine calls this each
// sweep to keep declarative adaptations off those edges: supervisor
// edits always win. Pass a reused buffer to avoid allocation; entries
// may repeat.
func (s *Supervisor) ClaimedEdges(buf []core.Edge) []core.Edge {
	s.mu.Lock()
	for _, ri := range s.engaged {
		buf = append(buf, s.reroutes[ri].Break, s.reroutes[ri].Make)
	}
	s.mu.Unlock()
	for _, r := range s.reroutes {
		if h, ok := s.mon.Health(r.Watch); ok && h.State == StateDown {
			buf = append(buf, r.Break, r.Make)
		}
	}
	return buf
}

// Start sweeps every Policy.Sweep until Stop or ctx is done.
func (s *Supervisor) Start(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sweeper != nil {
		return
	}
	// Every supervisor with one period sweeps on one grid, the wall
	// clock's multiples of the period (kept on the monotonic clock), so
	// one wake of each job shard runs all the sweeps due at an instant.
	period, start := s.mon.Policy().Sweep, time.Now()
	origin := start.Add(start.Truncate(period).Sub(start))
	s.sweeper = core.Every(ctx, origin.Add(period), func(now time.Time) (time.Time, bool) {
		s.Sweep(now)
		return core.NextDue(origin, period, now), true
	})
}

// Stop halts the sweeps and returns once a sweep in flight has.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	j := s.sweeper
	s.sweeper = nil
	s.mu.Unlock()
	j.Stop()
}

// Sweep runs one supervision pass at the given time: advance breakers,
// apply or reverse reroutes for any transitions, notify listeners.
// Exposed so tests (and synchronous drivers) can supervise without the
// sweep job.
func (s *Supervisor) Sweep(now time.Time) []Event {
	events := s.mon.Advance(now)
	// Reconcile every pass, not only on breaker transitions: an edit
	// that failed earlier (for example because a rules-engine edit
	// still held the edge) is retried on the next sweep even when no
	// breaker moves. When engaged state already matches the desired
	// state this is a cheap no-op scan.
	s.reconcile(events)
	if len(events) > 0 {
		s.mu.Lock()
		listeners := make([]func(Event), len(s.listeners))
		copy(listeners, s.listeners)
		s.mu.Unlock()
		for _, e := range events {
			for _, fn := range listeners {
				fn(e)
			}
		}
	}
	s.mu.Lock()
	s.sweepBuf = append(s.sweepBuf[:0], s.onSweep...)
	hooks := s.sweepBuf
	s.mu.Unlock()
	for _, fn := range hooks {
		fn(now)
	}
	return events
}

// reconcile drives every conflict group toward its desired rule after a
// batch of breaker transitions: the first rule by (Priority, declaration
// order) whose watched node is currently down, or none when all watches
// are healthy. Each group transition — engage, disengage, or a direct
// switch between rules — is applied as a single atomic edit. A failed
// edit annotates the triggering event so listeners see that adaptation
// did not land; the group is retried on the next sweep.
func (s *Supervisor) reconcile(events []Event) {
	if s.adapter == nil {
		return
	}
	for gi, group := range s.groups {
		want := -1
		for _, ri := range group {
			r := s.reroutes[ri]
			h, ok := s.mon.Health(r.Watch)
			if !ok || h.State != StateDown {
				continue
			}
			// Strictly-lower priority wins; ties keep the earlier
			// declaration (group holds indexes in declaration order).
			if want < 0 || r.Priority < s.reroutes[want].Priority {
				want = ri
			}
		}

		s.mu.Lock()
		have, engaged := s.engaged[gi]
		s.mu.Unlock()
		if !engaged {
			have = -1
		}
		if have == want {
			continue
		}

		var edit func(*core.Graph) error
		switch {
		case have < 0: // engage want from the pristine graph
			br, mk := s.reroutes[want].Break, s.reroutes[want].Make
			edit = func(g *core.Graph) error {
				if err := g.Disconnect(br.From, br.To, br.Port); err != nil {
					return err
				}
				return g.Connect(mk.From, mk.To, mk.Port)
			}
		case want < 0: // disengage have, restoring the broken edge
			old, br := s.reroutes[have].Make, s.reroutes[have].Break
			edit = func(g *core.Graph) error {
				if err := g.Disconnect(old.From, old.To, old.Port); err != nil {
					return err
				}
				return g.Connect(br.From, br.To, br.Port)
			}
		default: // switch rules without an intermediate restore
			old, mk := s.reroutes[have].Make, s.reroutes[want].Make
			edit = func(g *core.Graph) error {
				if err := g.Disconnect(old.From, old.To, old.Port); err != nil {
					return err
				}
				return g.Connect(mk.From, mk.To, mk.Port)
			}
		}

		if err := s.adapter(edit); err != nil {
			s.annotate(events, group, want >= 0, err)
			continue
		}
		s.mu.Lock()
		if want < 0 {
			delete(s.engaged, gi)
		} else {
			s.engaged[gi] = want
		}
		hooks := make([]func(bool), len(s.onReroute))
		copy(hooks, s.onReroute)
		s.mu.Unlock()
		for _, fn := range hooks {
			fn(want >= 0)
		}
	}
}

// annotate marks the first event from one of the group's watched nodes
// with the edit failure, so the listener batch carries the outcome.
func (s *Supervisor) annotate(events []Event, group []int, engaging bool, err error) {
	watched := make(map[string]bool, len(group))
	for _, ri := range group {
		watched[s.reroutes[ri].Watch] = true
	}
	for i := range events {
		if !watched[events[i].Node] {
			continue
		}
		if engaging {
			events[i].Reason = "reroute-failed"
			events[i].Err = fmt.Errorf("health: degrade %q: %w", events[i].Node, err)
		} else {
			events[i].Reason = "restore-failed"
			events[i].Err = fmt.Errorf("health: restore %q: %w", events[i].Node, err)
		}
		return
	}
}

// Degraded reports whether any reroute is currently engaged.
func (s *Supervisor) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.engaged) > 0
}
