package runtime

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"perpos/internal/catalog"
	"perpos/internal/channel"
	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

var testOrigin = geo.Point{Lat: 56.1629, Lon: 10.2039}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// seedFrom derives a deterministic per-target seed.
func seedFrom(id string) int64 {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int64(h.Sum32() & 0x7fffffff)
}

// gpsSessionConfig is the shared test fixture: the catalog's GPS
// blueprint, a per-target simulated receiver, a provider-sink app slot.
func gpsSessionConfig(t testing.TB) SessionConfig {
	t.Helper()
	bp, err := catalog.GPSBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	return SessionConfig{
		Blueprint: bp,
		Overrides: func(sessionID string) []core.InstantiateOption {
			seed := seedFrom(sessionID)
			tr := trace.OutdoorTrack(testOrigin, seed, 2, 100, 1.4, time.Second)
			return []core.InstantiateOption{
				core.WithComponentOverride("gps", func(cid string) core.Component {
					return gps.NewReceiver(cid, tr, gps.Config{Seed: seed, ColdStart: time.Second})
				}),
			}
		},
		Provider: positioning.ProviderInfo{Technology: "gps", TypicalAccuracy: 5},
		History:  64,
	}
}

func TestManagerNeedsBlueprint(t *testing.T) {
	if _, err := NewManager(SessionConfig{}); !errors.Is(err, ErrNoBlueprint) {
		t.Fatalf("NewManager without blueprint = %v, want ErrNoBlueprint", err)
	}
}

// TestSessionsIndependentAdapt: two sessions from one blueprint; a
// structural adaptation on one leaves the other untouched.
func TestSessionsIndependentAdapt(t *testing.T) {
	m, err := NewManager(gpsSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	alice, err := m.GetOrCreate("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := m.GetOrCreate("bob")
	if err != nil {
		t.Fatal(err)
	}
	if alice == bob || alice.Graph() == bob.Graph() {
		t.Fatal("sessions share state")
	}

	// Per-session PSL adaptation: alice's pipeline drops every position.
	err = alice.Adapt(func(g *core.Graph, _ *channel.Layer) error {
		gate := core.NewFilter("gate", positioning.KindPosition, func(core.Sample) bool { return false })
		return g.InsertBetween(gate, "interpreter", "app", 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := alice.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := alice.Provider().Last(); ok {
		t.Error("adapted session delivered despite the drop-all gate")
	}
	if _, ok := bob.Provider().Last(); !ok {
		t.Error("sibling session delivered nothing")
	}
	if _, ok := bob.Graph().Node("gate"); ok {
		t.Error("adaptation leaked into the sibling session")
	}
}

// TestSessionChannelFeatureVisible: a Channel Feature installed through
// a session adaptation is reachable from the session's provider — the
// per-target translucency path.
func TestSessionChannelFeatureVisible(t *testing.T) {
	m, err := NewManager(gpsSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	s, err := m.GetOrCreate("carol")
	if err != nil {
		t.Fatal(err)
	}
	err = s.Adapt(func(_ *core.Graph, l *channel.Layer) error {
		c, ok := l.ChannelInto("app", 0)
		if !ok {
			return errors.New("no channel into app")
		}
		return c.AttachFeature(markFeature{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Provider().Feature("mark"); !ok {
		t.Error("channel feature not visible through the provider")
	}
	if _, ok := s.Provider().Feature("absent"); ok {
		t.Error("absent feature resolved")
	}

	other, err := m.GetOrCreate("dave")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := other.Provider().Feature("mark"); ok {
		t.Error("channel feature leaked into the sibling session")
	}
}

type markFeature struct{}

func (markFeature) FeatureName() string     { return "mark" }
func (markFeature) Apply(*channel.DataTree) {}

func TestGetOrCreateConcurrent(t *testing.T) {
	m, err := NewManager(gpsSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const workers, ids = 32, 8
	got := make([]*Session, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m.GetOrCreate(fmt.Sprintf("t%d", w%ids))
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = s
		}()
	}
	wg.Wait()
	if m.Len() != ids {
		t.Fatalf("Len = %d, want %d", m.Len(), ids)
	}
	for w := 0; w < workers; w++ {
		if got[w] == nil || got[w] != got[w%ids] {
			t.Fatalf("worker %d got a different session than worker %d", w, w%ids)
		}
	}
}

// TestEvict: an evicted session leaves the registry closed, and a
// second eviction of the same target reports none.
func TestEvict(t *testing.T) {
	m, err := NewManager(gpsSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	a, err := m.GetOrCreate("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.GetOrCreate("b"); err != nil {
		t.Fatal(err)
	}
	if !m.Evict("a") {
		t.Fatal("Evict(a) = false")
	}
	if _, ok := m.Get("a"); ok {
		t.Error("evicted session still live")
	}
	// The evicted session is closed.
	if _, err := a.Run(0); !errors.Is(err, ErrClosed) {
		t.Errorf("Run on evicted session = %v, want ErrClosed", err)
	}
	if err := a.Adapt(func(*core.Graph, *channel.Layer) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Adapt on evicted session = %v, want ErrClosed", err)
	}

	if !m.Evict("b") {
		t.Error("Evict(b) = false")
	}
	if m.Evict("b") {
		t.Error("double Evict(b) = true")
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d after evicting all", m.Len())
	}
}

func TestPositioningIntegration(t *testing.T) {
	m, err := NewManager(gpsSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	pm := &positioning.Manager{}
	pm.BindSource(m)

	tgt, err := pm.Track("eve")
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("sessions after Track = %d, want 1", m.Len())
	}
	provs := tgt.Providers()
	if len(provs) != 1 {
		t.Fatalf("target has %d providers, want 1", len(provs))
	}

	s, ok := m.Get("eve")
	if !ok {
		t.Fatal("session missing")
	}
	if s.Provider() != provs[0] {
		t.Error("target's provider is not the session's")
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := tgt.Last(); !ok {
		t.Error("tracked target has no position after its session ran")
	}

	pm.Untrack("eve")
	if m.Len() != 0 {
		t.Errorf("sessions after Untrack = %d, want 0", m.Len())
	}
}

func TestSessionAsyncStartStop(t *testing.T) {
	m, err := NewManager(gpsSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	s, err := m.GetOrCreate("frank")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(ctx); !errors.Is(err, core.ErrRunning) {
		t.Errorf("second Start = %v, want core.ErrRunning", err)
	}
	s.Graph().WaitSources()
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Provider().Last(); !ok {
		t.Error("async session delivered nothing")
	}
	// Stop is idempotent; eviction after Stop is clean.
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	m.Evict("frank")
}
