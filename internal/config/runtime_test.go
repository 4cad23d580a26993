package config

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perpos/internal/chaos"
	"perpos/internal/core"
	"perpos/internal/positioning"
	"perpos/internal/runtime"
)

const durablePipeline = `{
  "name": "durable",
  "components": [
    {"id": "gps"},
    {"id": "app"}
  ],
  "connections": [
    {"from": "gps", "to": "app", "port": 0}
  ],
  "supervision": {
    "max_consecutive_errors": 2,
    "reroutes": [
      {
        "watch": "gps",
        "break": {"from": "gps", "to": "app", "port": 0},
        "make": {"from": "gps", "to": "app", "port": 0},
        "priority": 3
      }
    ]
  },
  "checkpoint": {"dir": "", "every_ms": 100, "snapshot_every": 4},
  "chaos": {
    "steps": [
      {"at_ms": 5, "action": "kill", "target": "gps"},
      {"at_ms": 10, "action": "heal", "target": "gps"}
    ]
  }
}`

func TestLoaderManagerWiresSupervisionAndCheckpoints(t *testing.T) {
	p, err := Parse(strings.NewReader(durablePipeline))
	if err != nil {
		t.Fatal(err)
	}
	if p.Checkpoint == nil || p.Chaos == nil {
		t.Fatalf("checkpoint/chaos blocks dropped: %+v", p)
	}
	p.Checkpoint.Dir = t.TempDir()

	l := &Loader{
		InstanceFactories: map[string]core.ComponentFactory{
			"gps": func(id string) core.Component {
				return &core.SliceSource{CompID: id, Out: core.OutputSpec{Kind: positioning.KindPosition}}
			},
		},
	}
	m, err := l.Manager(p, runtime.SessionConfig{
		Provider: positioning.ProviderInfo{Technology: "test"},
		History:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := m.Checkpoints()
	if store == nil {
		t.Fatal("manager has no checkpoint store despite the checkpoint block")
	}
	defer store.Close()
	defer m.Close()

	s, err := m.GetOrCreate("alice")
	if err != nil {
		t.Fatal(err)
	}
	if s.Monitor() == nil || s.Supervisor() == nil {
		t.Fatal("supervision block did not reach the session")
	}
	if got := s.Monitor().Policy().MaxConsecutiveErrors; got != 2 {
		t.Errorf("MaxConsecutiveErrors = %d, want 2 from the definition", got)
	}

	// The declared store backs manual checkpoints.
	if _, err := s.Checkpoint(); err != nil {
		t.Fatalf("manual checkpoint: %v", err)
	}
	ids, err := store.Sessions()
	if err != nil || len(ids) != 1 || ids[0] != "alice" {
		t.Fatalf("store sessions = %v (%v), want [alice]", ids, err)
	}
}

func TestLoaderManagerBaseStoreWins(t *testing.T) {
	p, err := Parse(strings.NewReader(durablePipeline))
	if err != nil {
		t.Fatal(err)
	}
	defDir := t.TempDir()
	p.Checkpoint.Dir = defDir

	baseDir := t.TempDir()
	baseStore, err := CheckpointDef{Dir: baseDir}.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer baseStore.Close()

	l := &Loader{
		InstanceFactories: map[string]core.ComponentFactory{
			"gps": func(id string) core.Component {
				return &core.SliceSource{CompID: id, Out: core.OutputSpec{Kind: positioning.KindPosition}}
			},
		},
	}
	m, err := l.Manager(p, runtime.SessionConfig{Checkpoints: baseStore})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Checkpoints() != baseStore {
		t.Error("definition store overrode the base config's store")
	}
}

func TestCheckpointDefNeedsDir(t *testing.T) {
	if _, err := (CheckpointDef{}).Open(); err == nil {
		t.Fatal("Open with no dir succeeded")
	}
	if got := (CheckpointDef{EveryMS: 250}).Every(); got != 250*time.Millisecond {
		t.Errorf("Every = %v, want 250ms", got)
	}
}

type fakeControllable struct{ kills, heals int }

func (f *fakeControllable) Kill(error) { f.kills++ }
func (f *fakeControllable) Heal()      { f.heals++ }

func TestChaosDefScheduleRuns(t *testing.T) {
	d := ChaosDef{Steps: []ChaosStepDef{
		{AtMS: 0, Action: "kill", Target: "gps"},
		{AtMS: 1, Action: "heal", Target: "gps"},
	}}
	target := &fakeControllable{}
	if err := d.Schedule().Run(context.Background(), map[string]chaos.Controllable{"gps": target}); err != nil {
		t.Fatal(err)
	}
	if target.kills != 1 || target.heals != 1 {
		t.Errorf("kills=%d heals=%d, want 1/1", target.kills, target.heals)
	}
}

func TestChaosDefRejectsUnknownAction(t *testing.T) {
	d := ChaosDef{Steps: []ChaosStepDef{{AtMS: 0, Action: "explode", Target: "gps"}}}
	err := d.Schedule().Validate(map[string]chaos.Controllable{"gps": &fakeControllable{}})
	if err == nil {
		t.Fatal("unknown action validated")
	}
}

// The shipped fault script must stay parseable: a checkpoint policy and
// a kill/heal script for rules-fusion.json's wifi branch, and no
// pipeline of its own.
func TestChaosFusionExampleParses(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "examples", "configs", "chaos-fusion.json"))
	if err != nil {
		t.Skipf("example config not reachable: %v", err)
	}
	defer f.Close()
	p, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.Checkpoint == nil || p.Chaos == nil {
		t.Fatalf("example missing blocks: checkpoint=%v chaos=%v", p.Checkpoint != nil, p.Chaos != nil)
	}
	if len(p.Components) != 0 || p.Supervision != nil || p.Rules != nil {
		t.Fatal("the fault script repeats pipeline blocks; rules-fusion.json is their one definition")
	}
	sched := p.Chaos.Schedule()
	if len(sched.Steps) != 2 || sched.Steps[0].Action != chaos.ActionKill || sched.Steps[0].At != 400*time.Millisecond {
		t.Fatalf("example schedule = %+v", sched.Steps)
	}
}
