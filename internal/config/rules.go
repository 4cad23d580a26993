package config

import (
	"errors"
	"fmt"
	"time"

	"perpos/internal/core"
	"perpos/internal/rules"
)

// ErrBadRule indicates a self-adaptation rule definition that cannot
// be reified: missing fields, an unknown action kind, or a condition
// the rules engine rejects.
var ErrBadRule = errors.New("config: invalid rule")

// RulesDef is the JSON schema for a pipeline's declarative
// self-adaptation rules — the paper's §3 case studies as data. Each
// rule watches a signal (sample attributes or per-node error counts),
// engages a reversible graph edit when the condition has held for its
// dwell time, and reverts it when the clear condition holds. Durations
// are milliseconds like the rest of the schema; zero knobs take the
// engine's defaults.
type RulesDef struct {
	Rules []RuleDef `json:"rules"`
}

// RuleDef is one declarative adaptation rule.
type RuleDef struct {
	// Name identifies the rule in events and metrics.
	Name string `json:"name"`
	// When is the engage condition, e.g. {"signal": "attr:hdop",
	// "op": ">", "value": 4}.
	When RuleConditionDef `json:"when"`
	// ClearWhen is the disengage condition; omitted means "not When".
	// A separate clear threshold creates the hysteresis band.
	ClearWhen *RuleConditionDef `json:"clear_when,omitempty"`
	// EngageAfterMS is how long When must hold before the action fires.
	EngageAfterMS int `json:"engage_after_ms,omitempty"`
	// DisengageAfterMS is how long ClearWhen must hold before the
	// action is reverted (0 = engine default).
	DisengageAfterMS int `json:"disengage_after_ms,omitempty"`
	// CooldownMS bars re-engagement after a disengage (0 = default).
	CooldownMS int `json:"cooldown_ms,omitempty"`
	// Priority and Group arbitrate conflicting rules: within a group at
	// most one rule is engaged, lowest priority first.
	Priority int    `json:"priority,omitempty"`
	Group    string `json:"group,omitempty"`
	// Action is the graph edit.
	Action RuleActionDef `json:"action"`
	// Guard optionally arms probation rollback.
	Guard *RuleGuardDef `json:"guard,omitempty"`
}

// RuleConditionDef compares a signal against a threshold. See the
// rules package for the signal grammar.
type RuleConditionDef struct {
	Signal string  `json:"signal"`
	Op     string  `json:"op"`
	Value  float64 `json:"value"`
}

// RuleGuardDef watches a signal during the probation window after an
// engagement; if it trips, the action is rolled back and the rule
// quarantined.
type RuleGuardDef struct {
	RuleConditionDef
	// Delta compares the signal's growth since engagement instead of
	// its absolute value (for monotone counters like errors:<node>).
	Delta bool `json:"delta,omitempty"`
	// ProbationMS bounds the guarded window (0 = engine default).
	ProbationMS int `json:"probation_ms,omitempty"`
}

// RuleActionDef is one reversible graph edit. Kind selects the shape:
//
//	"insert"  splice Component into the At edge (§3.1 filter insert)
//	"swap"    break one edge, make another (§3.3 provider swap)
//	"feature" attach Feature to Target (§3.2 power strategy)
type RuleActionDef struct {
	Kind string `json:"kind"`
	// Insert: the component to build (must carry a registry Type) and
	// the edge to splice it into, by its input port 0.
	Component ComponentDef   `json:"component,omitempty"`
	At        *ConnectionDef `json:"at,omitempty"`
	// Swap: the edge broken and the edge made while engaged.
	Break *ConnectionDef `json:"break,omitempty"`
	Make  *ConnectionDef `json:"make,omitempty"`
	// Feature: the feature (by loader factory name) and its host node.
	Target  string `json:"target,omitempty"`
	Feature string `json:"feature,omitempty"`
}

// Rules reifies the definition into engine rules, resolving insert
// component types against the loader's registry and feature names
// against its factories. All errors wrap ErrBadRule.
func (l *Loader) Rules(d *RulesDef) ([]rules.Rule, error) {
	if d == nil {
		return nil, nil
	}
	out := make([]rules.Rule, 0, len(d.Rules))
	for i, rd := range d.Rules {
		r, err := l.rule(rd)
		if err != nil {
			return nil, fmt.Errorf("%w: rule %d (%q): %w", ErrBadRule, i, rd.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func (l *Loader) rule(rd RuleDef) (rules.Rule, error) {
	action, err := l.ruleAction(rd.Action)
	if err != nil {
		return rules.Rule{}, err
	}
	r := rules.Rule{
		Name:           rd.Name,
		When:           ruleCondition(rd.When),
		EngageAfter:    time.Duration(rd.EngageAfterMS) * time.Millisecond,
		DisengageAfter: time.Duration(rd.DisengageAfterMS) * time.Millisecond,
		Cooldown:       time.Duration(rd.CooldownMS) * time.Millisecond,
		Priority:       rd.Priority,
		Group:          rd.Group,
		Action:         action,
	}
	if rd.ClearWhen != nil {
		c := ruleCondition(*rd.ClearWhen)
		r.ClearWhen = &c
	}
	if rd.Guard != nil {
		r.Guard = &rules.Guard{
			Condition: ruleCondition(rd.Guard.RuleConditionDef),
			Delta:     rd.Guard.Delta,
			Probation: time.Duration(rd.Guard.ProbationMS) * time.Millisecond,
		}
	}
	if err := rules.Validate(r); err != nil {
		return rules.Rule{}, err
	}
	return r, nil
}

func ruleCondition(d RuleConditionDef) rules.Condition {
	return rules.Condition{Signal: d.Signal, Op: rules.Op(d.Op), Value: d.Value}
}

func (l *Loader) ruleAction(d RuleActionDef) (rules.Action, error) {
	switch d.Kind {
	case "insert":
		if d.Component.ID == "" || d.Component.Type == "" {
			return nil, errors.New("insert action needs a component with id and type")
		}
		if d.At == nil {
			return nil, errors.New("insert action needs an at edge")
		}
		if l.Registry == nil {
			return nil, fmt.Errorf("%w: %q (loader has no registry)", ErrUnknownType, d.Component.Type)
		}
		reg, ok := l.Registry.Lookup(d.Component.Type)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownType, d.Component.Type)
		}
		return &rules.InsertAction{
			ID:    d.Component.ID,
			Build: func(id string) core.Component { return reg.New(id) },
			From:  d.At.From,
			To:    d.At.To,
			Port:  d.At.Port,
		}, nil
	case "swap":
		if d.Break == nil || d.Make == nil {
			return nil, errors.New("swap action needs break and make edges")
		}
		return &rules.SwapAction{
			Break: core.Edge{From: d.Break.From, To: d.Break.To, Port: d.Break.Port},
			Make:  core.Edge{From: d.Make.From, To: d.Make.To, Port: d.Make.Port},
		}, nil
	case "feature":
		if d.Target == "" || d.Feature == "" {
			return nil, errors.New("feature action needs target and feature")
		}
		factory, ok := l.Features[d.Feature]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownFeature, d.Feature)
		}
		return &rules.FeatureAction{Target: d.Target, Name: d.Feature, Build: factory}, nil
	}
	return nil, fmt.Errorf("unknown action kind %q", d.Kind)
}
