// Package rules closes the loop from observability to adaptation: a
// declarative self-adaptation engine whose conditions read live signals
// — per-node error counters and sample attributes flowing through the
// graph — and whose actions are structural graph edits applied between
// source steps through the runtime's pause seam (core.Graph.Pause on a
// started session). It turns the paper's three hand-written case
// studies (§3.1–3.3: insert a filter when accuracy degrades, swap
// providers, change power strategy) into data.
//
// Robustness is the core of the design, not an afterthought:
//
//   - Hysteresis: separate engage and disengage conditions, each with
//     its own dwell time, so a signal hovering between the thresholds
//     causes no transitions at all.
//   - Cooldown and flap damping: after disengaging, a rule cannot
//     re-engage until its cooldown expires; a rule that still manages
//     more than maxFlaps transitions inside flapWindow is quarantined
//     (reverted and barred from engaging) for quarantineFor.
//   - Conflict arbitration: supervisor degradation reroutes always win.
//     A rule whose action touches an edge the health.Supervisor has (or
//     wants) engaged is reverted/deferred until the supervisor lets go.
//     Rules also declare conflict groups of their own: within a group
//     at most one rule is engaged, lowest Priority first.
//   - Probation rollback: every engagement opens a probation window
//     during which an optional guard signal is watched; if the guard
//     trips, the edit is reverted and the rule quarantined.
//
// Evaluation piggybacks on the supervisor sweep (Supervisor.OnSweep),
// so cost is O(rules) per sweep and the per-sample tap does nothing but
// a few attribute probes with zero allocations.
package rules

import (
	"fmt"
	"strings"
	"time"
)

// Default tuning applied by normalize when a rule leaves the knob zero.
const (
	// DefaultDisengageAfter spaces disengagement behind the clear
	// condition so one clean sample cannot remove a needed adaptation.
	DefaultDisengageAfter = 500 * time.Millisecond
	// DefaultCooldown bars re-engagement right after a disengage.
	DefaultCooldown = 1 * time.Second
	// DefaultProbation is how long a fresh engagement is guarded.
	DefaultProbation = 2 * time.Second
)

// Flap damping: more than maxFlaps engage/disengage transitions within
// flapWindow quarantine a rule for quarantineFor.
const (
	maxFlaps      = 6
	flapWindow    = 10 * time.Second
	quarantineFor = 30 * time.Second
)

// Op is a comparison operator in a rule condition.
type Op string

// Condition operators.
const (
	OpGT Op = ">"
	OpGE Op = ">="
	OpLT Op = "<"
	OpLE Op = "<="
	OpEQ Op = "=="
	OpNE Op = "!="
)

// Condition compares a named signal against a threshold. Signals:
//
//	attr:<key>          most recent value of sample attribute <key>
//	                    observed on any emission in the graph
//	attr:<key>@<node>   same, but only emissions from <node>
//	errors:<node>       total processing errors recorded by the monitor
//
// A signal with no observation yet (attribute never seen, node unknown
// to the monitor) makes the condition evaluate false — unknown never
// engages and never clears.
type Condition struct {
	Signal string
	Op     Op
	Value  float64
}

func (c Condition) String() string {
	return fmt.Sprintf("%s %s %g", c.Signal, c.Op, c.Value)
}

// compare applies the operator.
func (c Condition) compare(v float64) bool {
	switch c.Op {
	case OpGT:
		return v > c.Value
	case OpGE:
		return v >= c.Value
	case OpLT:
		return v < c.Value
	case OpLE:
		return v <= c.Value
	case OpEQ:
		return v == c.Value
	case OpNE:
		return v != c.Value
	}
	return false
}

// Guard watches a signal during the probation window that follows an
// engagement. If the guarded signal crosses the threshold, the action
// is rolled back and the rule quarantined — the PR 7 rollout-gate
// logic, scoped to a single session edit.
type Guard struct {
	Condition
	// Delta, when true, compares the signal's growth since the moment
	// of engagement rather than its absolute value — the natural mode
	// for monotone counters like errors:<node>.
	Delta bool
	// Probation bounds how long the guard is evaluated after an
	// engagement; zero means DefaultProbation.
	Probation time.Duration
}

// Rule is one declarative adaptation: engage Action when When has held
// for EngageAfter, disengage when ClearWhen (or, if nil, the negation
// of When) has held for DisengageAfter.
type Rule struct {
	// Name identifies the rule in events, metrics, and status output.
	Name string
	// When is the engage condition.
	When Condition
	// ClearWhen is the disengage condition; nil means "not When". A
	// separate clear threshold is what creates the hysteresis band.
	ClearWhen *Condition
	// EngageAfter is how long When must hold before the action fires.
	EngageAfter time.Duration
	// DisengageAfter is how long ClearWhen must hold before the action
	// is reverted. Zero means DefaultDisengageAfter.
	DisengageAfter time.Duration
	// Cooldown bars re-engagement after a disengage. Zero means
	// DefaultCooldown.
	Cooldown time.Duration
	// Priority orders rules within a conflict Group: lower engages
	// first, declaration order breaking ties (the supervisor's model).
	Priority int
	// Group names the conflict group; rules sharing a Group have at
	// most one engaged at a time. Empty means the rule is its own
	// group.
	Group string
	// Action is the graph edit applied on engage and reverted on
	// disengage.
	Action Action
	// Guard optionally arms probation rollback for this rule.
	Guard *Guard
}

// normalize fills zero knobs with defaults and validates the rule.
func (r Rule) normalize(idx int) (Rule, error) {
	if r.Name == "" {
		return r, fmt.Errorf("rules: rule %d: missing name", idx)
	}
	if r.Action == nil {
		return r, fmt.Errorf("rules: rule %q: missing action", r.Name)
	}
	if err := validCondition(r.When); err != nil {
		return r, fmt.Errorf("rules: rule %q: when: %w", r.Name, err)
	}
	if r.ClearWhen != nil {
		if err := validCondition(*r.ClearWhen); err != nil {
			return r, fmt.Errorf("rules: rule %q: clear_when: %w", r.Name, err)
		}
	}
	if r.Guard != nil {
		if err := validCondition(r.Guard.Condition); err != nil {
			return r, fmt.Errorf("rules: rule %q: guard: %w", r.Name, err)
		}
		// A copy: the caller's rule, often shared by every session of a
		// config, keeps its own guard.
		g := *r.Guard
		if g.Probation == 0 {
			g.Probation = DefaultProbation
		}
		r.Guard = &g
	}
	if r.DisengageAfter == 0 {
		r.DisengageAfter = DefaultDisengageAfter
	}
	if r.Cooldown == 0 {
		r.Cooldown = DefaultCooldown
	}
	if r.Group == "" {
		r.Group = r.Name
	}
	return r, nil
}

// Validate checks a rule's name, action, conditions and operators
// without building an engine, so config loaders can reject a bad rule
// at load time instead of at session creation.
func Validate(r Rule) error {
	_, err := r.normalize(0)
	return err
}

// signalRef is a compiled signal: parsed once at engine construction so
// sweep-time evaluation is an atomic load or one monitor read.
type signalRef struct {
	node  string     // errors: the monitor node; attr: the emitting node filter ("" = any)
	probe *attrProbe // attr: only
}

// parseSignal splits a signal string into its node and, for an attr:
// signal, its attribute key. The attr probe is attached later by the
// engine (probes are deduplicated across rules).
func parseSignal(s string) (node, key string, err error) {
	name, arg, ok := strings.Cut(s, ":")
	if !ok || arg == "" {
		return "", "", fmt.Errorf("unknown signal %q", s)
	}
	switch name {
	case "attr":
		key, node, _ := strings.Cut(arg, "@")
		if key == "" {
			return "", "", fmt.Errorf("signal %q: empty attribute key", s)
		}
		return node, key, nil
	case "errors":
		return arg, "", nil
	}
	return "", "", fmt.Errorf("unknown signal %q", s)
}

// validCondition checks the signal parses and the operator is known.
func validCondition(c Condition) error {
	if _, _, err := parseSignal(c.Signal); err != nil {
		return err
	}
	switch c.Op {
	case OpGT, OpGE, OpLT, OpLE, OpEQ, OpNE:
		return nil
	}
	return fmt.Errorf("unknown operator %q", c.Op)
}
