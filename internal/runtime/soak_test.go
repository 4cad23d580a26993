package runtime_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perpos/internal/chaos"
	"perpos/internal/checkpoint"
	"perpos/internal/core"
	"perpos/internal/filter"
	"perpos/internal/geo"
	"perpos/internal/positioning"
	"perpos/internal/runtime"
)

// TestSoakCrashRecovery is the crash-recovery soak: a session of
// rules-fusion.json, without its rules, checkpoints periodically under
// a scripted chaos outage; the process "dies" (no graceful eviction —
// the durable trail is the periodic records plus a torn write at the
// journal tail), and a fresh manager over the same directory resumes
// the target with position continuity inside the filter's convergence
// bounds and a monotonic logical timeline.
func TestSoakCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	w := newFusionWorld()
	var wifiChaos *chaos.Source
	mkManager := func(store *checkpoint.Store) *runtime.Manager {
		base := w.base(w.receiver(time.Second), &wifiChaos)
		base.Checkpoints = store
		base.CheckpointEvery = 25 * time.Millisecond
		return w.manager(t, noRules, base)
	}

	store1, err := checkpoint.Open(dir, checkpoint.Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	m1 := mkManager(store1)
	s1, err := m1.GetOrCreate("soak")
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	s1.Provider().Subscribe(func(positioning.Position) { delivered.Add(1) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s1.Start(ctx, core.WithSourceInterval(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	// Scripted outage: the WiFi branch dies mid-run and heals later —
	// the declarative form of the chaos scenario.
	script := chaos.Schedule{Steps: []chaos.Step{
		{At: 50 * time.Millisecond, Action: chaos.ActionKill, Target: "wifi"},
		{At: 150 * time.Millisecond, Action: chaos.ActionHeal, Target: "wifi"},
	}}
	scriptDone := script.Start(ctx, map[string]chaos.Controllable{"wifi": wifiChaos})

	runtime.WaitFor(t, 10*time.Second, "positions before the crash", func() bool {
		return delivered.Load() >= 5
	})
	if err := <-scriptDone; err != nil {
		t.Fatalf("chaos script: %v", err)
	}
	runtime.WaitFor(t, 10*time.Second, "recovery after the scripted outage", func() bool {
		return s1.Provider().Availability() == positioning.Available
	})
	// Periodic checkpoints must have landed by now.
	runtime.WaitFor(t, 10*time.Second, "periodic checkpoints on disk", func() bool {
		st, err := store1.Load("soak")
		return err == nil && st.Seq >= 2
	})
	// One explicit checkpoint pins a healthy post-recovery state as the
	// newest record, then the "crash": stop without eviction, so nothing
	// newer is ever written — exactly what a killed process leaves.
	if _, err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := store1.Load("soak")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	_ = s1.Stop()
	store1.Close()

	// The kill also tore a frame mid-write at the tail of the segment
	// being appended to. Either segment may be that one, so tear both.
	for _, name := range []string{"soak.journal", "soak.snap"} {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_APPEND|os.O_WRONLY, 0o644)
		if errors.Is(err, os.ErrNotExist) {
			continue // fewer checkpoints than one segment takes
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xC5, 0x9E, 0x40, 0x00, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	// The checkpointed particle population is the recovery target: the
	// resumed stream must re-converge around it.
	var pfState struct {
		Particles []filter.Particle `json:"particles"`
	}
	for _, node := range ckpt.Graph.Nodes {
		if node.ID == "particle-filter" {
			if err := json.Unmarshal(node.Component, &pfState); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(pfState.Particles) == 0 {
		t.Fatal("checkpoint carries no particle population")
	}
	var mean geo.ENU
	for _, p := range pfState.Particles {
		mean.East += p.W * p.Pos.East
		mean.North += p.W * p.Pos.North
	}

	// Restart: fresh store, fresh manager, same directory.
	store2, err := checkpoint.Open(dir, checkpoint.Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	m2 := mkManager(store2)
	defer m2.Close()

	s2, err := m2.ResumeSession("soak")
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Provider().Availability(); got != positioning.Available {
		t.Fatalf("resumed availability = %v, want Available (the checkpointed state)", got)
	}
	pfNode, _ := s2.Graph().Node("particle-filter")
	resumedClock := pfNode.Clock()
	if resumedClock == 0 {
		t.Fatal("resumed logical clock is zero — state did not carry over")
	}

	var delivered2 atomic.Int64
	var firstResumed atomic.Pointer[positioning.Position]
	s2.Provider().Subscribe(func(p positioning.Position) {
		firstResumed.CompareAndSwap(nil, &p)
		delivered2.Add(1)
	})
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	if err := s2.Start(ctx2, core.WithSourceInterval(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	runtime.WaitFor(t, 10*time.Second, "positions after the resume", func() bool {
		return delivered2.Load() >= 3
	})
	_ = s2.Stop()

	// Position continuity: the first post-resume estimate stays within
	// the filter's convergence bounds of the checkpointed population
	// (not back at the start of the walk, not re-acquiring from scratch).
	first := firstResumed.Load()
	if first == nil {
		t.Fatal("no resumed position recorded")
	}
	if d := first.Local.Distance(mean); d > 20 {
		t.Errorf("first resumed estimate %.1f m from checkpointed population mean, want <= 20 m", d)
	}
	// Logical time is monotonic across the crash.
	if pfNode.Clock() <= resumedClock {
		t.Errorf("particle-filter clock after resumed run = %d, want > %d (monotonic)", pfNode.Clock(), resumedClock)
	}
}

// TestResumeRefusesInvalidState: a checkpoint whose receiver mode or
// particle population its components refuse does not resume. The
// error names the node, and the target stays untracked.
func TestResumeRefusesInvalidState(t *testing.T) {
	w := newFusionWorld()
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	base := w.base(w.receiver(time.Second), nil)
	base.Checkpoints = store
	m := w.manager(t, noRules, base)
	defer m.Close()

	s, err := m.GetOrCreate("tag")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepN(20); err != nil {
		t.Fatal(err)
	}
	m.Evict("tag") // the final checkpoint
	good, err := store.Load("tag")
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		node   string
		mutate func(fields map[string]any)
	}{
		{"gps", func(f map[string]any) { f["mode"] = 9 }},
		{"particle-filter", func(f map[string]any) { f["particles"] = f["particles"].([]any)[:5] }},
	} {
		t.Run(tc.node, func(t *testing.T) {
			bad := good
			bad.Graph.Nodes = append([]core.NodeState(nil), good.Graph.Nodes...)
			for i, ns := range bad.Graph.Nodes {
				if ns.ID != tc.node {
					continue
				}
				var fields map[string]any
				if err := json.Unmarshal(ns.Component, &fields); err != nil {
					t.Fatal(err)
				}
				tc.mutate(fields)
				raw, err := json.Marshal(fields)
				if err != nil {
					t.Fatal(err)
				}
				bad.Graph.Nodes[i].Component = raw
			}
			if _, err := store.Append(bad); err != nil {
				t.Fatal(err)
			}
			_, err := m.ResumeSession("tag")
			if err == nil || !strings.Contains(err.Error(), tc.node) {
				t.Fatalf("ResumeSession = %v, want an error naming %q", err, tc.node)
			}
			if _, ok := m.Get("tag"); ok {
				t.Fatal("a refused resume left the session tracked")
			}
		})
	}

	// The untouched checkpoint still resumes.
	if _, err := store.Append(good); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ResumeSession("tag"); err != nil {
		t.Fatalf("ResumeSession of the valid checkpoint: %v", err)
	}
}
