package config

import (
	"time"

	"perpos/internal/core"
	"perpos/internal/health"
)

// SupervisionDef is the JSON schema for a pipeline's supervision
// policy: the breaker thresholds, watchdog deadlines, source restart
// backoff and degradation reroutes a deployment declares alongside its
// wiring. Durations are milliseconds, matching the rest of the schema's
// integer fields.
type SupervisionDef struct {
	// MaxConsecutiveErrors trips a node's breaker (0 = default 3).
	MaxConsecutiveErrors int `json:"max_consecutive_errors,omitempty"`
	// DeadlinesMS sets the last-output watchdog deadline per component;
	// a component without one is never held to a deadline.
	DeadlinesMS map[string]int `json:"deadlines_ms,omitempty"`
	// ProbeIntervalMS paces half-open probes (0 = default 500).
	ProbeIntervalMS int `json:"probe_interval_ms,omitempty"`
	// SweepMS is the supervisor's evaluation period (0 = default 50).
	SweepMS int `json:"sweep_ms,omitempty"`
	// Restart bounds source restart-with-backoff.
	Restart *RestartDef `json:"restart,omitempty"`
	// Reroutes are the degradation rules.
	Reroutes []RerouteDef `json:"reroutes,omitempty"`
}

// RestartDef is the JSON schema for a source restart policy: the first
// backoff delay and its cap.
type RestartDef struct {
	BaseMS int `json:"base_ms,omitempty"`
	MaxMS  int `json:"max_ms,omitempty"`
}

// RerouteDef is the JSON schema for one degradation rule: when the
// watched component's breaker opens, the break connection is cut and
// the make connection established; recovery reverses the edit. Rules
// sharing a break connection are a conflict group; priority (lower
// first, declaration order on ties) picks which engages when several
// watches are down at once.
type RerouteDef struct {
	Watch    string        `json:"watch"`
	Break    ConnectionDef `json:"break"`
	Make     ConnectionDef `json:"make"`
	Priority int           `json:"priority,omitempty"`
}

// Policy converts the definition to a health.Policy.
func (d SupervisionDef) Policy() health.Policy {
	p := health.Policy{
		MaxConsecutiveErrors: d.MaxConsecutiveErrors,
		ProbeInterval:        time.Duration(d.ProbeIntervalMS) * time.Millisecond,
		Sweep:                time.Duration(d.SweepMS) * time.Millisecond,
	}
	if len(d.DeadlinesMS) > 0 {
		p.Deadlines = make(map[string]time.Duration, len(d.DeadlinesMS))
		for node, ms := range d.DeadlinesMS {
			p.Deadlines[node] = time.Duration(ms) * time.Millisecond
		}
	}
	if d.Restart != nil {
		p.Restart = core.RestartPolicy{
			Base: time.Duration(d.Restart.BaseMS) * time.Millisecond,
			Max:  time.Duration(d.Restart.MaxMS) * time.Millisecond,
		}
	}
	return p
}

// HealthReroutes converts the definition's reroutes to health.Reroute
// rules.
func (d SupervisionDef) HealthReroutes() []health.Reroute {
	out := make([]health.Reroute, 0, len(d.Reroutes))
	for _, r := range d.Reroutes {
		out = append(out, health.Reroute{
			Watch:    r.Watch,
			Break:    core.Edge{From: r.Break.From, To: r.Break.To, Port: r.Break.Port},
			Make:     core.Edge{From: r.Make.From, To: r.Make.To, Port: r.Make.Port},
			Priority: r.Priority,
		})
	}
	return out
}
