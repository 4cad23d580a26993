package rules

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"perpos/internal/core"
	"perpos/internal/health"
)

// EdgeClaimer reports the edges the health supervisor currently has (or
// wants) engaged for degradation routing. *health.Supervisor implements
// it; the engine treats every claimed edge as off-limits — supervisor
// reroutes always win over rules.
type EdgeClaimer interface {
	ClaimedEdges(buf []core.Edge) []core.Edge
}

// EventType classifies a rule lifecycle event.
type EventType int

// Rule lifecycle events.
const (
	// EventEngaged: the rule's action was applied.
	EventEngaged EventType = iota
	// EventDisengaged: the action was reverted (condition cleared,
	// supervisor conflict, or preemption — see Reason).
	EventDisengaged
	// EventRolledBack: the probation guard tripped and the action was
	// reverted; the rule is quarantined.
	EventRolledBack
	// EventQuarantined: flap damping benched the rule.
	EventQuarantined
	// EventDeferred: the rule wanted to engage but was blocked by a
	// supervisor edge claim or an engaged group peer.
	EventDeferred
	// EventActionFailed: an Apply or Revert edit returned an error.
	EventActionFailed
)

// String returns the event type's wire name.
func (t EventType) String() string {
	switch t {
	case EventEngaged:
		return "engaged"
	case EventDisengaged:
		return "disengaged"
	case EventRolledBack:
		return "rolled-back"
	case EventQuarantined:
		return "quarantined"
	case EventDeferred:
		return "deferred"
	case EventActionFailed:
		return "action-failed"
	}
	return "unknown"
}

// Event is one rule lifecycle transition, delivered to OnEvent
// listeners on the sweep goroutine, outside the engine lock.
type Event struct {
	Time   time.Time
	Rule   string
	Type   EventType
	Reason string
	Err    error
}

// RuleStatus is a point-in-time snapshot of one rule's state.
type RuleStatus struct {
	Name           string
	Engaged        bool
	Quarantined    bool
	Engagements    uint64
	Disengagements uint64
	Rollbacks      uint64
	Deferrals      uint64
	LastErr        string
}

// attrProbe holds the most recent observation of one sample attribute,
// written lock-free from the per-emission tap and read by the sweep.
type attrProbe struct {
	key  string
	node string // "" = any node
	bits atomic.Uint64
	seen atomic.Bool
}

// ruleState is the per-rule state machine.
type ruleState struct {
	rule      Rule
	when      signalRef
	clear     signalRef   // valid when rule.ClearWhen != nil
	guard     signalRef   // valid when rule.Guard != nil
	footprint []core.Edge // action edges, precomputed at construction

	condSince  time.Time // engage condition has held since (zero = not holding)
	clearSince time.Time // clear condition has held since

	engaged        bool
	cooldownUntil  time.Time
	quarantined    bool
	quarUntil      time.Time
	probationUntil time.Time
	guardBase      float64
	deferredNow    bool

	flapTimes []time.Time // recent transition timestamps within flapWindow

	engagements    uint64
	disengagements uint64
	rollbacks      uint64
	deferrals      uint64
	lastErr        error
}

// Config wires an Engine.
type Config struct {
	// Rules is the declarative rule set, evaluated in declaration
	// order.
	Rules []Rule
	// Adapter applies graph edits (runtime.Session's pause seam, which
	// edits between source steps). Required when Rules is non-empty.
	Adapter health.Adapter
	// Monitor supplies the errors:<node> signal. Optional; without it
	// that signal reads as unknown.
	Monitor *health.Monitor
	// Claimer supplies supervisor edge claims for arbitration.
	// Optional; without it rules never yield to the supervisor.
	Claimer EdgeClaimer
}

// Engine evaluates a rule set against live signals on every supervisor
// sweep and drives each rule's hysteresis / cooldown / quarantine /
// probation state machine. All mutation happens on the sweep
// goroutine; Status and Engaged may be called from anywhere.
type Engine struct {
	adapter health.Adapter
	mon     *health.Monitor
	claimer EdgeClaimer

	probes []*attrProbe

	mu        sync.Mutex
	states    []ruleState
	groups    [][]int // conflict groups: rule indexes in declaration order
	listeners []func(Event)
	pending   []Event
	claimed   []core.Edge // reused per sweep
	lsnapshot []func(Event)
}

// New compiles the rule set. Signal references and operators are
// validated here so a bad rule is a construction error, not a silent
// no-op at sweep time.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Rules) > 0 && cfg.Adapter == nil {
		return nil, errors.New("rules: adapter required")
	}
	e := &Engine{
		adapter: cfg.Adapter,
		mon:     cfg.Monitor,
		claimer: cfg.Claimer,
	}
	groupIdx := make(map[string]int)
	for i, r := range cfg.Rules {
		r, err := r.normalize(i)
		if err != nil {
			return nil, err
		}
		st := ruleState{rule: r, footprint: r.Action.Edges()}
		if st.when, err = e.compile(r.When); err != nil {
			return nil, err
		}
		if r.ClearWhen != nil {
			if st.clear, err = e.compile(*r.ClearWhen); err != nil {
				return nil, err
			}
		}
		if r.Guard != nil {
			if st.guard, err = e.compile(r.Guard.Condition); err != nil {
				return nil, err
			}
		}
		gi, ok := groupIdx[r.Group]
		if !ok {
			gi = len(e.groups)
			groupIdx[r.Group] = gi
			e.groups = append(e.groups, nil)
		}
		e.groups[gi] = append(e.groups[gi], len(e.states))
		e.states = append(e.states, st)
	}
	return e, nil
}

// compile parses a condition's signal and attaches (deduplicating) the
// attribute probe it reads.
func (e *Engine) compile(c Condition) (signalRef, error) {
	node, key, err := parseSignal(c.Signal)
	if err != nil {
		return signalRef{}, err
	}
	ref := signalRef{node: node}
	if key != "" {
		for _, p := range e.probes {
			if p.key == key && p.node == ref.node {
				ref.probe = p
				return ref, nil
			}
		}
		p := &attrProbe{key: key, node: ref.node}
		e.probes = append(e.probes, p)
		ref.probe = p
	}
	return ref, nil
}

// NeedsTap reports whether any rule reads sample attributes, i.e.
// whether the owner must register Tap on the graph.
func (e *Engine) NeedsTap() bool { return len(e.probes) > 0 }

// Tap is the per-emission observer feeding attribute probes. It is
// called on engine goroutines for every emission and allocates
// nothing: a key lookup per declared probe and an atomic store.
func (e *Engine) Tap(componentID string, s core.Sample) {
	for _, p := range e.probes {
		if p.node != "" && p.node != componentID {
			continue
		}
		if v, ok := s.FloatAttr(p.key); ok {
			p.bits.Store(math.Float64bits(v))
			p.seen.Store(true)
		}
	}
}

// OnEvent registers a lifecycle listener. Callbacks run serially on the
// sweep goroutine, outside the engine lock.
func (e *Engine) OnEvent(fn func(Event)) {
	if fn == nil {
		return
	}
	e.mu.Lock()
	e.listeners = append(e.listeners, fn)
	e.mu.Unlock()
}

// Status snapshots every rule's state, in declaration order.
func (e *Engine) Status() []RuleStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]RuleStatus, len(e.states))
	for i := range e.states {
		st := &e.states[i]
		out[i] = RuleStatus{
			Name:           st.rule.Name,
			Engaged:        st.engaged,
			Quarantined:    st.quarantined,
			Engagements:    st.engagements,
			Disengagements: st.disengagements,
			Rollbacks:      st.rollbacks,
			Deferrals:      st.deferrals,
		}
		if st.lastErr != nil {
			out[i].LastErr = st.lastErr.Error()
		}
	}
	return out
}

// Engaged reports whether the named rule is currently engaged.
func (e *Engine) Engaged(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.states {
		if e.states[i].rule.Name == name {
			return e.states[i].engaged
		}
	}
	return false
}

// Sweep runs one evaluation pass at the given time. Call it from the
// supervisor's OnSweep hook (after the supervisor has reconciled its
// own reroutes) or drive it directly in tests. Not re-entrant: one
// goroutine at a time.
func (e *Engine) Sweep(now time.Time) {
	e.mu.Lock()

	e.claimed = e.claimed[:0]
	if e.claimer != nil {
		e.claimed = e.claimer.ClaimedEdges(e.claimed)
	}

	// Pass 1: evaluate conditions and run the lifecycle of engaged
	// rules — supervisor conflicts, probation guards, clear dwell.
	for i := range e.states {
		st := &e.states[i]
		if st.quarantined && !now.Before(st.quarUntil) {
			st.quarantined = false
		}

		e.track(&st.condSince, e.holds(&st.when, st.rule.When), now)

		if !st.engaged {
			continue
		}

		// Supervisor claims the edge → yield immediately. This is not
		// rule churn, so it does not count toward flap damping, and the
		// usual cooldown still applies before re-engaging.
		if e.conflicts(st) {
			e.revert(st, now, "supervisor-conflict", false)
			continue
		}

		// Probation guard: roll back a fresh engagement that makes the
		// guarded signal worse.
		if st.rule.Guard != nil && now.Before(st.probationUntil) {
			if v, ok := e.value(&st.guard); ok {
				if st.rule.Guard.Delta {
					v -= st.guardBase
				}
				if st.rule.Guard.compare(v) {
					if e.revert(st, now, "guard-tripped", false) == nil {
						st.rollbacks++
						e.quarantine(st, now, "guard-tripped")
						e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventRolledBack, Reason: st.rule.Guard.String()})
					}
					continue
				}
			}
		}

		// Hysteresis: disengage only after the clear condition has
		// held for the full dwell.
		clear := false
		if st.rule.ClearWhen != nil {
			clear = e.holds(&st.clear, *st.rule.ClearWhen)
		} else if v, ok := e.value(&st.when); ok {
			// Default clear is the negation of When — but only when the
			// signal is actually observable. Unknown never transitions.
			clear = !st.rule.When.compare(v)
		}
		e.track(&st.clearSince, clear, now)
		if !st.clearSince.IsZero() && now.Sub(st.clearSince) >= st.rule.DisengageAfter {
			if e.revert(st, now, "cleared", true) == nil {
				st.clearSince = time.Time{}
			}
		}
	}

	// Pass 2: engagement, arbitrated per conflict group — lowest
	// Priority first, declaration order breaking ties, preempting a
	// higher-priority-number peer already engaged.
	for _, group := range e.groups {
		engagedIdx := -1
		for _, i := range group {
			if e.states[i].engaged {
				engagedIdx = i
				break
			}
		}
		best := -1
		for _, i := range group {
			st := &e.states[i]
			if st.engaged {
				continue
			}
			wants := !st.quarantined &&
				!st.condSince.IsZero() && now.Sub(st.condSince) >= st.rule.EngageAfter &&
				!now.Before(st.cooldownUntil)
			if !wants {
				st.deferredNow = false
				continue
			}
			if e.conflicts(st) {
				e.defer_(st, now, "supervisor-claim")
				continue
			}
			if best < 0 || st.rule.Priority < e.states[best].rule.Priority {
				best = i
			}
		}
		if best < 0 {
			continue
		}
		st := &e.states[best]
		if engagedIdx >= 0 {
			if st.rule.Priority >= e.states[engagedIdx].rule.Priority {
				e.defer_(st, now, "group-occupied")
				continue
			}
			if e.revert(&e.states[engagedIdx], now, "preempted", true) != nil {
				continue
			}
		}
		st.deferredNow = false
		e.engage(st, now)
	}

	pending := e.pending
	e.pending = nil
	e.lsnapshot = append(e.lsnapshot[:0], e.listeners...)
	listeners := e.lsnapshot
	e.mu.Unlock()

	for _, ev := range pending {
		for _, fn := range listeners {
			fn(ev)
		}
	}
}

// track updates a dwell anchor: set when the condition starts holding,
// cleared the moment it stops.
func (e *Engine) track(since *time.Time, holding bool, now time.Time) {
	if holding {
		if since.IsZero() {
			*since = now
		}
	} else {
		*since = time.Time{}
	}
}

// holds evaluates a condition; unknown signals never hold.
func (e *Engine) holds(ref *signalRef, c Condition) bool {
	v, ok := e.value(ref)
	return ok && c.compare(v)
}

// value reads a compiled signal: the attribute probe's latest
// observation, or the monitor's error count for the node.
func (e *Engine) value(ref *signalRef) (float64, bool) {
	if ref.probe != nil {
		if !ref.probe.seen.Load() {
			return 0, false
		}
		return math.Float64frombits(ref.probe.bits.Load()), true
	}
	if e.mon == nil {
		return 0, false
	}
	h, ok := e.mon.Health(ref.node)
	if !ok {
		return 0, false
	}
	return float64(h.Errors), true
}

// conflicts reports whether the rule's action footprint intersects the
// supervisor's claimed edges.
func (e *Engine) conflicts(st *ruleState) bool {
	if len(e.claimed) == 0 {
		return false
	}
	for _, a := range st.footprint {
		for _, c := range e.claimed {
			if a == c {
				return true
			}
		}
	}
	return false
}

// engage applies the rule's action and opens probation. A failed edit
// starts the cooldown so a permanently failing action is retried at
// cooldown cadence, not every sweep.
func (e *Engine) engage(st *ruleState, now time.Time) {
	if err := e.adapter(st.rule.Action.Apply); err != nil {
		st.lastErr = err
		st.cooldownUntil = now.Add(st.rule.Cooldown)
		e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventActionFailed, Reason: "apply", Err: err})
		return
	}
	st.engaged = true
	st.engagements++
	st.condSince = time.Time{}
	st.clearSince = time.Time{}
	if st.rule.Guard != nil {
		st.probationUntil = now.Add(st.rule.Guard.Probation)
		st.guardBase = 0
		if v, ok := e.value(&st.guard); ok {
			st.guardBase = v
		}
	}
	e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventEngaged, Reason: st.rule.Action.Describe()})
	e.transition(st, now)
}

// revert undoes an engaged rule's action. On failure the rule stays
// engaged and the revert is retried next sweep (actions' Revert is
// idempotent). countFlap marks condition-driven churn; supervisor
// yields don't count against the rule.
func (e *Engine) revert(st *ruleState, now time.Time, reason string, countFlap bool) error {
	if err := e.adapter(st.rule.Action.Revert); err != nil {
		st.lastErr = err
		e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventActionFailed, Reason: "revert", Err: err})
		return err
	}
	st.engaged = false
	st.disengagements++
	st.cooldownUntil = now.Add(st.rule.Cooldown)
	e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventDisengaged, Reason: reason})
	if countFlap {
		e.transition(st, now)
	}
	return nil
}

// transition records one engage/disengage into the flap window and
// quarantines the rule when the budget is blown.
func (e *Engine) transition(st *ruleState, now time.Time) {
	cutoff := now.Add(-flapWindow)
	keep := st.flapTimes[:0]
	for _, t := range st.flapTimes {
		if t.After(cutoff) {
			keep = append(keep, t)
		}
	}
	st.flapTimes = append(keep, now)
	if len(st.flapTimes) > maxFlaps {
		if st.engaged {
			if e.revert(st, now, "flapping", false) != nil {
				return
			}
		}
		e.quarantine(st, now, "flapping")
	}
}

// quarantine benches the rule and announces it.
func (e *Engine) quarantine(st *ruleState, now time.Time, reason string) {
	st.quarantined = true
	st.quarUntil = now.Add(quarantineFor)
	st.flapTimes = st.flapTimes[:0]
	e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventQuarantined, Reason: reason})
}

// defer_ announces a blocked engagement once per deferral episode.
func (e *Engine) defer_(st *ruleState, now time.Time, reason string) {
	if st.deferredNow {
		return
	}
	st.deferredNow = true
	st.deferrals++
	e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventDeferred, Reason: reason})
}

// emit queues an event for delivery after the engine lock is released.
func (e *Engine) emit(ev Event) { e.pending = append(e.pending, ev) }
