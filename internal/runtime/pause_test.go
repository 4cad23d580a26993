package runtime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"perpos/internal/channel"
	"perpos/internal/checkpoint"
	"perpos/internal/core"
	"perpos/internal/gps"
	"perpos/internal/obs"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

// longGPSSessionConfig is gpsSessionConfig on a track of several
// hundred samples, so a session paced at 10 ms outlives a 1 s window.
func longGPSSessionConfig(t *testing.T) SessionConfig {
	cfg := gpsSessionConfig(t)
	cfg.Overrides = func(sessionID string) []core.InstantiateOption {
		seed := seedFrom(sessionID)
		tr := trace.OutdoorTrack(testOrigin, seed, 8, 100, 1.4, time.Second)
		return []core.InstantiateOption{
			core.WithComponentOverride("gps", func(cid string) core.Component {
				return gps.NewReceiver(cid, tr, gps.Config{Seed: seed, ColdStart: time.Second})
			}),
		}
	}
	return cfg
}

// withStore adds a checkpoint store (reporting to hub, when set) and
// the periodic checkpoint period to cfg.
func withStore(t *testing.T, cfg SessionConfig, every time.Duration, hub *obs.Metrics) SessionConfig {
	t.Helper()
	var opts checkpoint.Options
	if hub != nil {
		opts.OnAppend = hub.CheckpointAppend
	}
	store, err := checkpoint.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cfg.Checkpoints, cfg.CheckpointEvery = store, every
	return cfg
}

// startCounted creates the target's session in a new manager over cfg,
// starts it paced at interval and counts its positions.
func startCounted(t *testing.T, cfg SessionConfig, id string, interval time.Duration) (*Session, *atomic.Int64) {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	s, err := m.GetOrCreate(id)
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	s.Provider().Subscribe(func(positioning.Position) { n.Add(1) })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := s.Start(ctx, core.WithSourceInterval(interval)); err != nil {
		t.Fatal(err)
	}
	return s, &n
}

// TestPauseKeepsSourceCadence: periodic checkpoints pause the session
// between source steps and add none, so the delivered rate is the
// configured one whatever the checkpoint period.
func TestPauseKeepsSourceCadence(t *testing.T) {
	_, plain := startCounted(t, longGPSSessionConfig(t), "pace", 10*time.Millisecond)
	_, paused := startCounted(t, withStore(t, longGPSSessionConfig(t), 25*time.Millisecond, nil), "pace", 10*time.Millisecond)
	time.Sleep(time.Second)
	p, c := plain.Load(), paused.Load()
	if p < 50 {
		t.Fatalf("unpaused session delivered %d positions in 1 s at 10 ms, want about 100", p)
	}
	if d := c - p; d < -3 || d > 3 {
		t.Errorf("checkpointed session delivered %d positions in 1 s, unpaused %d: want within ±3", c, p)
	}
}

// TestWaitSourcesOutlastsCheckpoints: WaitSources returns once the
// sources are exhausted, not when the first periodic checkpoint
// pauses the session.
func TestWaitSourcesOutlastsCheckpoints(t *testing.T) {
	ref, err := NewManager(gpsSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rs, err := ref.GetOrCreate("wait")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	rs.Provider().Subscribe(func(positioning.Position) { want++ })
	if _, err := rs.Run(0); err != nil {
		t.Fatal(err)
	}

	s, got := startCounted(t, withStore(t, gpsSessionConfig(t), 2*time.Millisecond, nil), "wait", time.Millisecond)
	s.Graph().WaitSources()
	if n := got.Load(); n != int64(want) {
		t.Errorf("WaitSources returned after %d positions, want all %d", n, want)
	}
}

// TestAdaptWhileRunning: Adapt edits a started session between source
// steps instead of failing with core.ErrRunning, and the started graph
// drives its edited structure.
func TestAdaptWhileRunning(t *testing.T) {
	s, delivered := startCounted(t, longGPSSessionConfig(t), "adapt", time.Millisecond)
	waitFor(t, 5*time.Second, "positions before the edit", func() bool { return delivered.Load() > 0 })
	var seen atomic.Int64
	err := s.Adapt(func(g *core.Graph, _ *channel.Layer) error {
		tap := core.NewFilter("tap", positioning.KindPosition, func(core.Sample) bool {
			seen.Add(1)
			return true
		})
		return g.InsertBetween(tap, "interpreter", "app", 0, 0)
	})
	if err != nil {
		t.Fatalf("Adapt on a started session = %v, want nil", err)
	}
	waitFor(t, 5*time.Second, "samples through the inserted filter", func() bool { return seen.Load() >= 5 })
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStepRefusedWhileStarted: a started session's graph steps its
// sources, so Step, StepN and Run fail with core.ErrRunning until Stop
// instead of stepping the sources alongside the graph's source jobs;
// after Stop they drive the session again.
func TestStepRefusedWhileStarted(t *testing.T) {
	s, delivered := startCounted(t, longGPSSessionConfig(t), "started", 10*time.Millisecond)
	waitFor(t, 5*time.Second, "positions from the runner", func() bool { return delivered.Load() > 0 })
	for i := 0; i < 4; i++ {
		if _, err := s.StepN(4); !errors.Is(err, core.ErrRunning) {
			t.Fatalf("StepN on a started session: err = %v, want core.ErrRunning", err)
		}
		if _, err := s.Step(); !errors.Is(err, core.ErrRunning) {
			t.Fatalf("Step on a started session: err = %v, want core.ErrRunning", err)
		}
		if _, err := s.Run(1); !errors.Is(err, core.ErrRunning) {
			t.Fatalf("Run on a started session: err = %v, want core.ErrRunning", err)
		}
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	before := delivered.Load()
	if _, err := s.StepN(4); err != nil {
		t.Fatalf("StepN after Stop: %v", err)
	}
	if delivered.Load() == before {
		t.Error("StepN after Stop delivered no position")
	}
}

// refusingParser is a GPS parser whose state capture always fails.
type refusingParser struct{ *gps.Parser }

func (refusingParser) MarshalState() ([]byte, error) { return nil, errors.New("state refused") }

// TestCheckpointCaptureFailureCounted: a checkpoint that fails before
// it reaches the store — periodic, manual or evict-time — is counted
// on the hub's checkpoint errors.
func TestCheckpointCaptureFailureCounted(t *testing.T) {
	// refusing returns a session whose parser refuses to be captured,
	// checkpointing every `every` (0: no ticker), and its hub.
	refusing := func(t *testing.T, every time.Duration) (*obs.Metrics, *Manager, *Session) {
		t.Helper()
		hub := obs.New()
		cfg := gpsSessionConfig(t)
		cfg.Observability = hub
		bindGPS := cfg.Overrides
		cfg.Overrides = func(id string) []core.InstantiateOption {
			return append(bindGPS(id), core.WithComponentOverride("parser", func(cid string) core.Component {
				return refusingParser{gps.NewParser(cid)}
			}))
		}
		m, err := NewManager(withStore(t, cfg, every, hub))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		s, err := m.GetOrCreate("refuse")
		if err != nil {
			t.Fatal(err)
		}
		return hub, m, s
	}

	hub, _, s := refusing(t, 2*time.Millisecond)
	if err := s.Start(context.Background(), core.WithSourceInterval(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "failed periodic checkpoints counted", func() bool {
		return hub.CheckpointErrors.Value() >= 3
	})

	// Without a ticker the manual and the evict-time failure are the
	// only ones.
	hub, m, s := refusing(t, 0)
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("manual checkpoint succeeded with a refusing parser")
	}
	if got := hub.CheckpointErrors.Value(); got != 1 {
		t.Errorf("checkpoint errors = %d after a failed manual checkpoint, want 1", got)
	}
	m.Evict("refuse")
	if got := hub.CheckpointErrors.Value(); got != 2 {
		t.Errorf("checkpoint errors = %d after a failed evict-time checkpoint, want 2", got)
	}
	if got := hub.CheckpointWrites.Value(); got != 0 {
		t.Errorf("checkpoint writes = %d, want 0", got)
	}
}

// TestStopWaitsForCheckpointTicker: Stop returns only once the periodic
// checkpoint ticker has exited, so no record is appended to a stopped
// session's journal by a tick that raced the stop.
func TestStopWaitsForCheckpointTicker(t *testing.T) {
	var appends atomic.Int64
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{
		OnAppend: func(string, int, time.Duration, error) { appends.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := longGPSSessionConfig(t)
	cfg.Checkpoints, cfg.CheckpointEvery = store, 200*time.Microsecond
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.GetOrCreate("late-tick")
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 100; cycle++ {
		ctx, cancel := context.WithCancel(context.Background())
		if err := s.Start(ctx, core.WithSourceInterval(time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		if err := s.Stop(); err != nil {
			t.Fatal(err)
		}
		cancel()
		stopped := appends.Load()
		time.Sleep(time.Millisecond)
		if late := appends.Load() - stopped; late != 0 {
			t.Fatalf("cycle %d: %d checkpoint(s) appended after Stop returned", cycle, late)
		}
	}
}
