package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	goruntime "runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"perpos/internal/chaos"
	"perpos/internal/core"
	"perpos/internal/gps"
	"perpos/internal/obs"
	"perpos/internal/positioning"
	"perpos/internal/runtime"
	"perpos/internal/wifi"
)

// upgradeManager is the rolling-upgrade fixture: fusion-upgrade.json
// (revision 1 GPS-only, revision 2 rules-fusion.json's layout) with a
// simulated receiver per target, starting on revision 1. fusion binds
// each session's revision-2 slots (wifi, particle-filter); its bindings
// must be OPTIONAL, since revision 1 has neither slot, so the same
// override set serves both revisions — exactly the seam
// WithOptionalOverride exists for. hub, when non-nil, is the fleet's
// metrics hub.
func (w *fusionWorld) upgradeManager(tb testing.TB, hub *obs.Metrics, fusion func(seed int64) []core.InstantiateOption) *runtime.Manager {
	tb.Helper()
	loader, p := w.shipped(tb, "fusion-upgrade.json")
	m, err := loader.Manager(p, runtime.SessionConfig{
		Overrides: func(sessionID string) []core.InstantiateOption {
			seed := runtime.SeedFrom(sessionID)
			return append(fusion(seed), core.WithComponentOverride("gps", func(id string) core.Component {
				return gps.NewReceiver(id, w.tr, gps.Config{Seed: seed})
			}))
		},
		Provider:      positioning.ProviderInfo{Technology: "fusion", TypicalAccuracy: 3},
		History:       16,
		Observability: hub,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// fusionSlots binds revision 2's WiFi sensor, built by wifiSource (a
// simulated sensor on the walk when nil), and a 50-particle filter.
func (w *fusionWorld) fusionSlots(wifiSource func(id string, seed int64) core.Component) func(seed int64) []core.InstantiateOption {
	if wifiSource == nil {
		wifiSource = func(id string, seed int64) core.Component {
			return wifi.NewSensor(id, w.n, w.tr, time.Second, seed)
		}
	}
	return func(seed int64) []core.InstantiateOption {
		return []core.InstantiateOption{
			core.WithOptionalOverride("wifi", func(id string) core.Component { return wifiSource(id, seed) }),
			w.filter(50),
		}
	}
}

// TestFusionUpgradeSetShape pins the migration surface of the set that
// config.Loader builds from fusion-upgrade.json: the GPS chain is
// Unchanged between the revisions (identity tags by registry type and
// feature name; a placeholder matches a placeholder), only the wifi
// branch and the filter are added, and the reverse diff mirrors it.
func TestFusionUpgradeSetShape(t *testing.T) {
	loader, p := newFusionWorld().shipped(t, "fusion-upgrade.json")
	set, err := loader.BlueprintSet(p)
	if err != nil {
		t.Fatal(err)
	}
	if set.Latest() != 2 {
		t.Fatalf("Latest = %d, want 2", set.Latest())
	}
	d, err := set.Diff(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantAdded := []string{"particle-filter", "wifi", "wifi-positioning"}
	wantKept := []string{"app", "gps", "interpreter", "parser"}
	if !reflect.DeepEqual(d.Added, wantAdded) {
		t.Errorf("Added = %v, want %v", d.Added, wantAdded)
	}
	if !reflect.DeepEqual(d.Unchanged, wantKept) {
		t.Errorf("Unchanged = %v, want %v", d.Unchanged, wantKept)
	}
	if len(d.Removed) != 0 || len(d.Replaced) != 0 {
		t.Errorf("Removed/Replaced = %v/%v, want none", d.Removed, d.Replaced)
	}
	// The HDOP feature is identity-tagged in both revisions: no churn.
	if len(d.AttachFeatures) != 0 || len(d.DetachFeatures) != 0 {
		t.Errorf("feature churn = %v/%v, want none", d.AttachFeatures, d.DetachFeatures)
	}
	back, err := set.Diff(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Removed, wantAdded) {
		t.Errorf("reverse Removed = %v, want %v", back.Removed, wantAdded)
	}
}

// TestRolloutFleetUpgrade is the tentpole e2e: 100 live async sessions
// on the GPS-only revision roll to the fusion revision through canary →
// gate → ramp. Zero sessions drop, every session lands on revision 2
// with its graph still delivering positions, and the obs hub's rollout
// counters and per-revision gauges track the fleet exactly.
func TestRolloutFleetUpgrade(t *testing.T) {
	const fleet = 100
	hub := obs.New()
	w := newFusionWorld()
	m := w.upgradeManager(t, hub, w.fusionSlots(nil))
	defer m.Close()
	if got := m.ActiveRevision(); got != 1 {
		t.Fatalf("initial active revision = %d, want 1", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered atomic.Int64
	for i := 0; i < fleet; i++ {
		s, err := m.GetOrCreate(fmt.Sprintf("target-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		s.Provider().Subscribe(func(positioning.Position) { delivered.Add(1) })
		if err := s.Start(ctx, core.WithSourceInterval(5*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if got := hub.RevisionLive(1).Value(); got != fleet {
		t.Fatalf("revision 1 gauge = %d, want %d", got, fleet)
	}
	runtime.WaitFor(t, 10*time.Second, "pre-rollout positions", func() bool {
		return delivered.Load() >= fleet
	})

	rep, err := m.Rollout(ctx, runtime.RolloutConfig{
		To:             2,
		CanaryFraction: 0.1,
		CanaryWindow:   50 * time.Millisecond,
		// The mechanics are under test here, not the gate: a healthy
		// wifi branch may still log transient errors (acquisition), so
		// the budget is generous. The rollback path has its own test.
		Gate: runtime.GateConfig{MaxErrors: 1 << 20},
	})
	if err != nil {
		t.Fatalf("Rollout: %v (report %+v)", err, rep)
	}
	if rep.RolledBack || rep.Reason != "" {
		t.Fatalf("report = %+v, want clean completion", rep)
	}
	if rep.Sessions != fleet || rep.Canaries != fleet/10 {
		t.Errorf("report sessions/canaries = %d/%d, want %d/%d", rep.Sessions, rep.Canaries, fleet, fleet/10)
	}
	if rep.Upgraded != fleet || rep.Failed != 0 {
		t.Errorf("report upgraded/failed = %d/%d, want %d/0", rep.Upgraded, rep.Failed, fleet)
	}

	// Zero dropped sessions, all on revision 2, active revision moved.
	if got := m.Len(); got != fleet {
		t.Fatalf("live sessions after rollout = %d, want %d", got, fleet)
	}
	if got := m.ActiveRevision(); got != 2 {
		t.Fatalf("active revision = %d, want 2", got)
	}
	for _, id := range m.IDs() {
		s, ok := m.Get(id)
		if !ok {
			t.Fatalf("session %q vanished", id)
		}
		if s.Revision() != 2 {
			t.Fatalf("session %q revision = %d, want 2", id, s.Revision())
		}
		if _, ok := s.Graph().Node("particle-filter"); !ok {
			t.Fatalf("session %q has no particle-filter after upgrade", id)
		}
	}

	// The fleet keeps serving on the new revision.
	before := delivered.Load()
	runtime.WaitFor(t, 10*time.Second, "post-rollout positions", func() bool {
		return delivered.Load() >= before+fleet
	})

	// Hub bookkeeping: lifecycle counters and per-revision gauges.
	if got := hub.RolloutsStarted.Value(); got != 1 {
		t.Errorf("RolloutsStarted = %d, want 1", got)
	}
	if got := hub.RolloutsCompleted.Value(); got != 1 {
		t.Errorf("RolloutsCompleted = %d, want 1", got)
	}
	if got := hub.RolloutsRolledBack.Value(); got != 0 {
		t.Errorf("RolloutsRolledBack = %d, want 0", got)
	}
	if got := hub.RolloutUpgraded.Value(); got != fleet {
		t.Errorf("RolloutUpgraded = %d, want %d", got, fleet)
	}
	if got := hub.RevisionLive(1).Value(); got != 0 {
		t.Errorf("revision 1 gauge = %d, want 0", got)
	}
	if got := hub.RevisionLive(2).Value(); got != fleet {
		t.Errorf("revision 2 gauge = %d, want %d", got, fleet)
	}

	// New sessions instantiate the target revision directly.
	late, err := m.GetOrCreate("latecomer")
	if err != nil {
		t.Fatal(err)
	}
	if late.Revision() != 2 {
		t.Errorf("post-rollout session revision = %d, want 2", late.Revision())
	}
}

// TestRolloutCanaryRollback injects a regression: every wifi sensor the
// upgrade instantiates is chaos-killed from the start, so the canaries'
// new branch errors immediately. The gate (zero error budget on the
// diff's added nodes) must trip, the canaries must be migrated back to
// the GPS-only revision, the active revision must never move, and the
// hub must count exactly one rollback with every canary reverted.
func TestRolloutCanaryRollback(t *testing.T) {
	const fleet = 30
	w := newFusionWorld()
	hub := obs.New()
	m := w.upgradeManager(t, hub, w.fusionSlots(func(id string, seed int64) core.Component {
		src := chaos.WrapSource(wifi.NewSensor(id, w.n, w.tr, time.Second, seed))
		src.Kill(nil) // dead on arrival: the regression ships with rev 2
		return src
	}))
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered atomic.Int64
	for i := 0; i < fleet; i++ {
		s, err := m.GetOrCreate(fmt.Sprintf("target-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		s.Provider().Subscribe(func(positioning.Position) { delivered.Add(1) })
		if err := s.Start(ctx, core.WithSourceInterval(5*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.WaitFor(t, 10*time.Second, "pre-rollout positions", func() bool {
		return delivered.Load() >= fleet
	})

	rep, err := m.Rollout(ctx, runtime.RolloutConfig{
		To:             2,
		CanaryFraction: 0.1,
		CanaryWindow:   500 * time.Millisecond,
		Gate:           runtime.GateConfig{MaxErrors: 0}, // any new error on the added nodes trips
	})
	if !errors.Is(err, runtime.ErrRolloutRolledBack) {
		t.Fatalf("Rollout = %v, want runtime.ErrRolloutRolledBack (report %+v)", err, rep)
	}
	if !rep.RolledBack || rep.Reason == "" {
		t.Fatalf("report = %+v, want rolled back with a reason", rep)
	}
	wantCanaries := fleet / 10
	if rep.Canaries != wantCanaries || rep.Reverted != wantCanaries {
		t.Errorf("canaries/reverted = %d/%d, want %d/%d", rep.Canaries, rep.Reverted, wantCanaries, wantCanaries)
	}
	if rep.Upgraded != 0 {
		t.Errorf("upgraded = %d, want 0 after rollback", rep.Upgraded)
	}

	// The fleet is whole and uniformly back on revision 1; the active
	// revision never moved, so new sessions stay on the old pipeline.
	if got := m.Len(); got != fleet {
		t.Fatalf("live sessions after rollback = %d, want %d", got, fleet)
	}
	if got := m.ActiveRevision(); got != 1 {
		t.Fatalf("active revision after rollback = %d, want 1", got)
	}
	for _, id := range m.IDs() {
		s, _ := m.Get(id)
		if s.Revision() != 1 {
			t.Fatalf("session %q revision = %d, want 1", id, s.Revision())
		}
		if _, ok := s.Graph().Node("wifi"); ok {
			t.Fatalf("session %q still has the wifi branch after rollback", id)
		}
	}

	// Rollback bookkeeping: one rollback, every canary reverted, and
	// the canaries counted as upgraded on the way out too.
	if got := hub.RolloutsRolledBack.Value(); got != 1 {
		t.Errorf("RolloutsRolledBack = %d, want 1", got)
	}
	if got := hub.RolloutsCompleted.Value(); got != 0 {
		t.Errorf("RolloutsCompleted = %d, want 0", got)
	}
	if got := hub.RolloutReverted.Value(); got != uint64(wantCanaries) {
		t.Errorf("RolloutReverted = %d, want %d", got, wantCanaries)
	}
	if got := hub.RevisionLive(1).Value(); got != fleet {
		t.Errorf("revision 1 gauge = %d, want %d", got, fleet)
	}
	if got := hub.RevisionLive(2).Value(); got != 0 {
		t.Errorf("revision 2 gauge = %d, want 0", got)
	}

	// Positions keep flowing on the old revision after the aborted roll.
	before := delivered.Load()
	runtime.WaitFor(t, 10*time.Second, "positions after rollback", func() bool {
		return delivered.Load() >= before+fleet
	})
}

// TestRolloutCarriesStateBitExact drives a sync fleet a few steps, then
// rolls it 1→2→1 and asserts the unchanged GPS-chain nodes carry their
// serialized state bit-for-bit through BOTH migrations — the in-place
// guarantee: unchanged nodes keep their live instances, so there is no
// marshal/unmarshal round trip to drift through.
func TestRolloutCarriesStateBitExact(t *testing.T) {
	const fleet = 20
	w := newFusionWorld()
	m := w.upgradeManager(t, nil, w.fusionSlots(nil))
	defer m.Close()

	snap := func(s *runtime.Session) map[string]core.NodeState {
		gs, err := s.Graph().SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]core.NodeState, len(gs.Nodes))
		for _, ns := range gs.Nodes {
			out[ns.ID] = ns
		}
		return out
	}

	sessions := make([]*runtime.Session, fleet)
	before := make([]map[string]core.NodeState, fleet)
	for i := range sessions {
		s, err := m.GetOrCreate(fmt.Sprintf("target-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.StepN(5); err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		before[i] = snap(s)
	}

	kept := []string{"gps", "parser", "interpreter", "app"}
	for _, to := range []int{2, 1} {
		rep, err := m.Rollout(context.Background(), runtime.RolloutConfig{To: to})
		if err != nil {
			t.Fatalf("Rollout to %d: %v (report %+v)", to, err, rep)
		}
		if rep.Upgraded != fleet {
			t.Fatalf("Rollout to %d upgraded %d, want %d", to, rep.Upgraded, fleet)
		}
		for i, s := range sessions {
			after := snap(s)
			for _, id := range kept {
				b, ok := before[i][id]
				if !ok {
					t.Fatalf("node %q missing from pre-rollout snapshot", id)
				}
				a, ok := after[id]
				if !ok {
					t.Fatalf("node %q missing after migrating to %d", id, to)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("session %d node %q state drifted across 1→%d migration:\n  before %+v\n  after  %+v",
						i, id, to, b, a)
				}
			}
		}
	}
	// And the fleet still runs: another batch of steps succeeds.
	for _, s := range sessions {
		if _, err := s.StepN(2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRolloutNoSessions: rolling an empty fleet just moves the active
// revision (no canaries to watch).
func TestRolloutNoSessions(t *testing.T) {
	w := newFusionWorld()
	m := w.upgradeManager(t, nil, w.fusionSlots(nil))
	defer m.Close()
	rep, err := m.Rollout(context.Background(), runtime.RolloutConfig{To: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 0 || rep.Canaries != 0 || rep.Upgraded != 0 {
		t.Fatalf("report = %+v, want all-zero counts", rep)
	}
	if got := m.ActiveRevision(); got != 2 {
		t.Fatalf("active revision = %d, want 2", got)
	}
	s, err := m.GetOrCreate("first")
	if err != nil {
		t.Fatal(err)
	}
	if s.Revision() != 2 {
		t.Fatalf("new session revision = %d, want 2", s.Revision())
	}
}

// TestRolloutRejectsUnknownRevision: a bad target fails fast, before
// anything migrates.
func TestRolloutRejectsUnknownRevision(t *testing.T) {
	m, err := runtime.NewManager(runtime.GPSSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Rollout(context.Background(), runtime.RolloutConfig{To: 7}); !errors.Is(err, core.ErrUnknownRevision) {
		t.Fatalf("Rollout to unknown revision = %v, want ErrUnknownRevision", err)
	}
	// Same-revision rollout is a no-op, not an error.
	rep, err := m.Rollout(context.Background(), runtime.RolloutConfig{To: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Upgraded != 0 {
		t.Fatalf("no-op rollout upgraded %d sessions", rep.Upgraded)
	}
}

// BenchmarkRuntimeRollingUpgrade measures fleet migration: 100 started
// async sessions in two fleets of 50, each iteration rolling both
// fleets to their other revision through the full canary→gate→ramp
// machinery with no soak window. The fleets start on different
// revisions, so every iteration migrates 50 sessions up (1→2) and 50
// down (2→1): an upgrade allocates more than a downgrade, and with one
// fleet allocs/op would depend on whether b.N is odd. The reported
// migrations/s is the rate at which running sessions cross revisions —
// pause, in-place plan application, channel-layer refresh and source
// resume included. allocs/op counts the migrations alone, whatever the
// machine's speed, and repeats exactly:
//   - The GPS sources are paced an hour apart, so none steps in the
//     timed loop. A source a migration adds steps at once, on its own
//     goroutine, so each upgrade waits for every new WiFi source's first
//     step; its slot is bound to a source with nothing to emit. The
//     particle filter is the registry's, as rules-fusion.json ships it.
//   - Warm-up rounds fill the standard library's pools the migration
//     path draws from, and the garbage collector is held off until the
//     timed loop ends: a GC empties those pools, so allocs/op would
//     otherwise depend on how many GCs a run happens to hit.
func BenchmarkRuntimeRollingUpgrade(b *testing.B) {
	const half = 50
	var scans, upgrades atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := newFusionWorld()
	var fleets [2]*runtime.Manager
	for f := range fleets {
		m := w.upgradeManager(b, obs.New(), func(int64) []core.InstantiateOption {
			return []core.InstantiateOption{core.WithOptionalOverride("wifi", func(id string) core.Component {
				return &noScans{id: id, steps: &scans}
			})}
		})
		defer m.Close()
		for i := 0; i < half; i++ {
			s, err := m.GetOrCreate(fmt.Sprintf("target-%03d", i))
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Start(ctx, core.WithSourceInterval(time.Hour)); err != nil {
				b.Fatal(err)
			}
		}
		fleets[f] = m
	}

	roll := func(m *runtime.Manager, to int) {
		rep, err := m.Rollout(ctx, runtime.RolloutConfig{
			To:   to,
			Gate: runtime.GateConfig{MaxErrors: 1 << 30},
		})
		if err != nil {
			b.Fatalf("Rollout to %d: %v (report %+v)", to, err, rep)
		}
		if rep.Upgraded != half {
			b.Fatalf("Rollout to %d upgraded %d, want %d", to, rep.Upgraded, half)
		}
		if to == 2 {
			for want := upgrades.Add(1) * half; scans.Load() < want; {
				goruntime.Gosched()
			}
		}
	}
	// round takes fleet 0 to revision to and fleet 1 to the other one.
	round := func(to int) {
		roll(fleets[0], to)
		roll(fleets[1], 3-to)
	}

	roll(fleets[1], 2)
	goruntime.GC()
	gcPercent := debug.SetGCPercent(-1)
	for i := 0; i < 10; i++ {
		round(2)
		round(1)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		round(2 - i%2)
	}
	b.StopTimer()
	debug.SetGCPercent(gcPercent)
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)*2*half/elapsed, "migrations/s")
	}
}

// noScans is a WiFi source with nothing to emit that counts its steps.
type noScans struct {
	id    string
	steps *atomic.Int64
}

func (s *noScans) ID() string { return s.id }
func (s *noScans) Spec() core.Spec {
	return core.Spec{Name: "NoScans", Output: core.OutputSpec{Kind: wifi.KindScan}}
}
func (s *noScans) Process(int, core.Sample, core.Emit) error { return nil }
func (s *noScans) Step(core.Emit) (bool, error) {
	s.steps.Add(1)
	return false, nil
}
