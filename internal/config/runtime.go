package config

import (
	"errors"
	"time"

	"perpos/internal/checkpoint"
	"perpos/internal/runtime"
)

// CheckpointDef is the JSON schema for durable session checkpointing:
// the on-disk store location and the cadence at which running sessions
// persist their component state.
type CheckpointDef struct {
	// Dir is the checkpoint store directory (created on open).
	Dir string `json:"dir"`
	// EveryMS checkpoints running sessions on this period; 0 keeps only
	// evict-time and manual checkpoints.
	EveryMS int `json:"every_ms,omitempty"`
	// SnapshotEvery compacts a session's journal into a snapshot after
	// this many appends (0 = store default).
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// Fsync forces an fsync after every journal append — maximum
	// durability, at a throughput cost.
	Fsync bool `json:"fsync,omitempty"`
}

// Open opens the checkpoint store the definition describes.
func (d CheckpointDef) Open() (*checkpoint.Store, error) {
	if d.Dir == "" {
		return nil, errors.New("config: checkpoint needs a dir")
	}
	return checkpoint.Open(d.Dir, checkpoint.Options{
		SnapshotEvery: d.SnapshotEvery,
		Fsync:         d.Fsync,
	})
}

// Every returns the periodic checkpoint cadence (0 = disabled).
func (d CheckpointDef) Every() time.Duration {
	return time.Duration(d.EveryMS) * time.Millisecond
}

// RolloutDef is the JSON schema for a pipeline's rolling-upgrade
// parameters: how large the canary cohort is, how long it soaks, and
// the metric gate that decides ramp versus rollback.
type RolloutDef struct {
	// CanaryFraction of live sessions migrated first (0 = driver
	// default, 5%).
	CanaryFraction float64 `json:"canary_fraction,omitempty"`
	// CanaryWindowMS is the soak time before the gate is evaluated.
	CanaryWindowMS int `json:"canary_window_ms,omitempty"`
	// MaxErrors is the gate's error budget across watched nodes over the
	// canary window (0 = any new error trips).
	MaxErrors uint64 `json:"max_errors,omitempty"`
	// MaxP99MS bounds the watched nodes' p99 process latency over the
	// window (0 disables the latency check).
	MaxP99MS int `json:"max_p99_ms,omitempty"`
	// Nodes overrides the watched node set (default: the revision
	// diff's added and replaced components).
	Nodes []string `json:"nodes,omitempty"`
	// Concurrency bounds parallel per-session migrations (0 = driver
	// default).
	Concurrency int `json:"concurrency,omitempty"`
}

// Config reifies the definition into a driver config targeting the
// given revision.
func (d RolloutDef) Config(to int) runtime.RolloutConfig {
	return runtime.RolloutConfig{
		To:             to,
		CanaryFraction: d.CanaryFraction,
		CanaryWindow:   time.Duration(d.CanaryWindowMS) * time.Millisecond,
		Gate: runtime.GateConfig{
			Nodes:     d.Nodes,
			MaxErrors: d.MaxErrors,
			MaxP99:    time.Duration(d.MaxP99MS) * time.Millisecond,
		},
		Concurrency: d.Concurrency,
	}
}

// Manager reifies the pipeline definition into a blueprint and
// constructs the session manager that serves it: the declared
// supervision policy becomes the per-session health monitor and
// degradation reroutes, and the declared checkpoint store backs
// evict-time, manual and periodic state persistence. base supplies
// everything the definition doesn't carry — per-target overrides,
// provider info, history bounds; its Blueprint field is replaced, and
// its Checkpoints field, when already set, wins over the definition's
// (the caller owns that store's lifecycle either way — the manager
// never closes it).
func (l *Loader) Manager(p Pipeline, base runtime.SessionConfig) (*runtime.Manager, error) {
	cfg := base
	if len(p.Revisions) > 0 {
		set, err := l.BlueprintSet(p)
		if err != nil {
			return nil, err
		}
		cfg.Blueprint = nil
		cfg.Blueprints = set
		cfg.InitialRevision = p.InitialRevision
	} else {
		bp, err := l.Blueprint(p)
		if err != nil {
			return nil, err
		}
		cfg.Blueprint = bp
	}
	if p.Supervision != nil {
		pol := p.Supervision.Policy()
		cfg.Health = &pol
		cfg.Reroutes = p.Supervision.HealthReroutes()
	}
	if p.Rules != nil {
		rs, err := l.Rules(p.Rules)
		if err != nil {
			return nil, err
		}
		cfg.Rules = rs
	}
	if p.Checkpoint != nil && cfg.Checkpoints == nil {
		store, err := p.Checkpoint.Open()
		if err != nil {
			return nil, err
		}
		cfg.Checkpoints = store
		cfg.CheckpointEvery = p.Checkpoint.Every()
	}
	return runtime.NewManager(cfg)
}
