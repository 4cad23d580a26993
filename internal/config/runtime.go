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
	// SnapshotEvery switches a session's checkpoints to its other
	// segment after this many appends (0 = store default).
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
