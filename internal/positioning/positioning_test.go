package positioning

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"perpos/internal/core"
	"perpos/internal/geo"
)

var origin = geo.Point{Lat: 56.1629, Lon: 10.2039}

func posAt(p geo.Point, at time.Time, acc float64, source string) Position {
	return Position{Time: at, Global: p, Accuracy: acc, Source: source}
}

func TestProviderPushPull(t *testing.T) {
	p := NewProvider("gps", ProviderInfo{Technology: "gps", TypicalAccuracy: 5}, nil)
	if _, ok := p.Last(); ok {
		t.Error("fresh provider has a last position")
	}

	var pushed []Position
	cancel := p.Subscribe(func(pos Position) { pushed = append(pushed, pos) })

	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	p.Deliver(posAt(origin, at, 4, "gps"))
	last, ok := p.Last()
	if !ok || last.Accuracy != 4 {
		t.Errorf("Last = %+v, %v", last, ok)
	}
	if len(pushed) != 1 {
		t.Fatalf("pushed = %d, want 1", len(pushed))
	}

	cancel()
	p.Deliver(posAt(origin, at.Add(time.Second), 4, "gps"))
	if len(pushed) != 1 {
		t.Error("subscription fired after cancel")
	}
	if last, _ = p.Last(); !last.Time.After(at) {
		t.Error("Last not updated after cancel")
	}
}

func TestProximityNotificationEdgeTriggered(t *testing.T) {
	p := NewProvider("gps", ProviderInfo{}, nil)
	center := origin
	var fires int
	cancel := p.NotifyProximity(center, 50, func(Position) { fires++ })
	defer cancel()

	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	deliver := func(dist float64) {
		p.Deliver(posAt(center.Offset(dist, 90), at, 3, "gps"))
		at = at.Add(time.Second)
	}

	deliver(200) // outside
	if fires != 0 {
		t.Fatal("fired while outside")
	}
	deliver(10) // enter
	if fires != 1 {
		t.Fatalf("fires = %d after entering, want 1", fires)
	}
	deliver(20) // still inside: no re-fire
	deliver(30)
	if fires != 1 {
		t.Fatalf("fires = %d while dwelling, want 1", fires)
	}
	deliver(200) // exit
	deliver(5)   // re-enter
	if fires != 2 {
		t.Fatalf("fires = %d after re-entry, want 2", fires)
	}
}

func TestProviderFeatureLookup(t *testing.T) {
	lookup := func(name string) (any, bool) {
		if name == "likelihood" {
			return "the-feature", true
		}
		return nil, false
	}
	p := NewProvider("pf", ProviderInfo{Technology: "particle-filter"}, lookup)
	if f, ok := p.Feature("likelihood"); !ok || f != "the-feature" {
		t.Errorf("Feature = %v/%v", f, ok)
	}
	if _, ok := p.Feature("absent"); ok {
		t.Error("absent feature resolved")
	}
	bare := NewProvider("bare", ProviderInfo{}, nil)
	if _, ok := bare.Feature("anything"); ok {
		t.Error("nil lookup resolved a feature")
	}
}

func TestProviderSinkDelivers(t *testing.T) {
	p := NewProvider("gps", ProviderInfo{}, nil)
	sink := NewProviderSink("app", p)
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	pos := posAt(origin, at, 3, "gps")
	if err := sink.Process(0, core.NewSample(KindPosition, pos, at), nil); err != nil {
		t.Fatal(err)
	}
	got, ok := p.Last()
	if !ok || got.Accuracy != 3 {
		t.Errorf("Last = %+v, %v", got, ok)
	}
	// Non-position payloads are ignored, not fatal.
	if err := sink.Process(0, core.NewSample(KindPosition, 42, at), nil); err != nil {
		t.Fatal(err)
	}
}

func TestManagerCriteriaMatching(t *testing.T) {
	m := &Manager{}
	gps := NewProvider("gps", ProviderInfo{Technology: "gps", TypicalAccuracy: 5}, nil)
	wifi := NewProvider("wifi", ProviderInfo{Technology: "wifi", TypicalAccuracy: 3, RoomLevel: true}, nil)
	pf := NewProvider("pf", ProviderInfo{Technology: "particle-filter", TypicalAccuracy: 2},
		func(name string) (any, bool) { return nil, name == "likelihood" })
	for _, p := range []*Provider{gps, wifi, pf} {
		if err := m.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Register(gps); err == nil {
		t.Error("duplicate registration accepted")
	}

	tests := []struct {
		name string
		c    Criteria
		want string
	}{
		{"any -> best accuracy", Criteria{}, "pf"},
		{"by technology", Criteria{Technology: "gps"}, "gps"},
		{"room level", Criteria{RoomLevel: true}, "wifi"},
		{"accuracy bound", Criteria{MaxAccuracy: 4, Technology: "wifi"}, "wifi"},
		{"required feature", Criteria{RequiredFeatures: []string{"likelihood"}}, "pf"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := m.Provider(tt.c)
			if err != nil {
				t.Fatal(err)
			}
			if p.Name() != tt.want {
				t.Errorf("Provider(%+v) = %s, want %s", tt.c, p.Name(), tt.want)
			}
		})
	}

	t.Run("no match", func(t *testing.T) {
		_, err := m.Provider(Criteria{Technology: "sonar"})
		if !errors.Is(err, ErrNoProvider) {
			t.Errorf("error = %v, want ErrNoProvider", err)
		}
		_, err = m.Provider(Criteria{MaxAccuracy: 1})
		if !errors.Is(err, ErrNoProvider) {
			t.Errorf("accuracy error = %v, want ErrNoProvider", err)
		}
		_, err = m.Provider(Criteria{RequiredFeatures: []string{"teleportation"}})
		if !errors.Is(err, ErrNoProvider) {
			t.Errorf("feature error = %v, want ErrNoProvider", err)
		}
	})
}

func TestTargetsAndKNearest(t *testing.T) {
	m := &Manager{}
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

	mkTarget := func(id string, dist float64) {
		p := NewProvider(id+"-gps", ProviderInfo{Technology: "gps"}, nil)
		if err := m.Register(p); err != nil {
			t.Fatal(err)
		}
		track(t, m, id).Attach(p)
		p.Deliver(posAt(origin.Offset(dist, 0), at, 3, "gps"))
	}
	mkTarget("alice", 10)
	mkTarget("bob", 100)
	mkTarget("carol", 40)

	// An untracked target with no position does not appear.
	track(t, m, "ghost")

	near := m.KNearest(origin, 2)
	if len(near) != 2 {
		t.Fatalf("KNearest = %d entries", len(near))
	}
	if near[0].Target.ID() != "alice" || near[1].Target.ID() != "carol" {
		t.Errorf("order = %s, %s", near[0].Target.ID(), near[1].Target.ID())
	}
	if near[0].Distance > near[1].Distance {
		t.Error("distances unsorted")
	}

	all := m.KNearest(origin, 0)
	if len(all) != 3 {
		t.Errorf("k=0 returned %d, want all 3", len(all))
	}

	// Track returns the same target for the same ID.
	if track(t, m, "alice") != track(t, m, "alice") {
		t.Error("Track not idempotent")
	}
	if got := len(m.Targets()); got != 4 {
		t.Errorf("Targets = %d, want 4", got)
	}
}

// TestKNearestMatchesFullSort: the heap selection agrees with a plain
// full sort for every k over a spread of target layouts.
func TestKNearestMatchesFullSort(t *testing.T) {
	m := &Manager{}
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	// Distances include duplicates so the ID tie-break is exercised.
	dists := []float64{40, 10, 40, 250, 3, 10, 80, 40, 0, 120}
	for i, d := range dists {
		id := fmt.Sprintf("t%02d", i)
		p := NewProvider(id+"-gps", ProviderInfo{Technology: "gps"}, nil)
		if err := m.Register(p); err != nil {
			t.Fatal(err)
		}
		track(t, m, id).Attach(p)
		p.Deliver(posAt(origin.Offset(d, float64(i*36)), at, 3, "gps"))
	}
	track(t, m, "no-position")

	// Reference: full sort with the same ordering rule.
	var ref []Neighbor
	for _, tgt := range m.Targets() {
		pos, ok := tgt.Last()
		if !ok {
			continue
		}
		ref = append(ref, Neighbor{Target: tgt, Position: pos, Distance: origin.DistanceTo(pos.Global)})
	}
	sort.Slice(ref, func(i, j int) bool { return neighborLess(ref[i], ref[j]) })

	for k := 0; k <= len(dists)+2; k++ {
		got := m.KNearest(origin, k)
		want := ref
		if k > 0 && k < len(ref) {
			want = ref[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d entries, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i].Target != want[i].Target || got[i].Distance != want[i].Distance {
				t.Errorf("k=%d entry %d: %s@%.2f, want %s@%.2f", k, i,
					got[i].Target.ID(), got[i].Distance, want[i].Target.ID(), want[i].Distance)
			}
		}
	}
}

// sessionSource is a fake runtime: ProvidersFor spins up one provider
// per target, Release reclaims it.
type sessionSource struct {
	mu       sync.Mutex
	live     map[string]*Provider
	creates  int
	releases []string
	fail     bool
}

func (s *sessionSource) ProvidersFor(id string) ([]*Provider, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return nil, errors.New("spin-up failed")
	}
	if p, ok := s.live[id]; ok {
		return []*Provider{p}, nil
	}
	if s.live == nil {
		s.live = make(map[string]*Provider)
	}
	s.creates++
	p := NewProvider(id+"-session", ProviderInfo{Technology: "fused"}, nil)
	s.live[id] = p
	return []*Provider{p}, nil
}

func (s *sessionSource) Release(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.live, id)
	s.releases = append(s.releases, id)
}

func TestTrackObtainsProvidersFromSource(t *testing.T) {
	m := &Manager{}
	src := &sessionSource{}
	m.BindSource(src)

	tgt := track(t, m, "alice")
	provs := tgt.Providers()
	if len(provs) != 1 || provs[0].Name() != "alice-session" {
		t.Fatalf("Providers = %v", provs)
	}
	// Tracking again reuses the registration, no second spin-up.
	if again := track(t, m, "alice"); again != tgt {
		t.Error("Track not idempotent with a source")
	}
	if src.creates != 1 {
		t.Errorf("creates = %d, want 1", src.creates)
	}

	// The source-supplied provider feeds the target.
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	provs[0].Deliver(posAt(origin, at, 2, "fused"))
	if pos, ok := tgt.Last(); !ok || pos.Source != "fused" {
		t.Errorf("Last = %+v, %v", pos, ok)
	}

	// Untrack releases the session and forgets the target.
	m.Untrack("alice")
	if len(src.releases) != 1 || src.releases[0] != "alice" {
		t.Errorf("releases = %v", src.releases)
	}
	if got := len(m.Targets()); got != 0 {
		t.Errorf("Targets after Untrack = %d", got)
	}
	// Unknown IDs are a no-op, not a release.
	m.Untrack("nobody")
	if len(src.releases) != 1 {
		t.Errorf("releases after unknown Untrack = %v", src.releases)
	}

	// Re-tracking spins up a fresh session.
	track(t, m, "alice")
	if src.creates != 2 {
		t.Errorf("creates after re-track = %d, want 2", src.creates)
	}
}

func TestTrackErrSurfacesSourceFailure(t *testing.T) {
	m := &Manager{}
	src := &sessionSource{fail: true}
	m.BindSource(src)
	if tgt, err := m.Track("alice"); err == nil || tgt != nil {
		t.Fatalf("Track = %v, %v; want the source failure and no target", tgt, err)
	}
	if got := len(m.Targets()); got != 0 {
		t.Errorf("failed track left %d targets", got)
	}
	// Nothing was registered, so once the source recovers the target is
	// tracked with its provider.
	src.mu.Lock()
	src.fail = false
	src.mu.Unlock()
	if provs := track(t, m, "alice").Providers(); len(provs) != 1 {
		t.Errorf("Providers after recovery = %v, want the session's", provs)
	}
}

// track is Manager.Track for a call that must succeed.
func track(t *testing.T, m *Manager, id string) *Target {
	t.Helper()
	tgt, err := m.Track(id)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func TestTargetFreshestAcrossProviders(t *testing.T) {
	m := &Manager{}
	old := NewProvider("old", ProviderInfo{}, nil)
	fresh := NewProvider("fresh", ProviderInfo{}, nil)
	tgt := track(t, m, "t")
	tgt.Attach(old)
	tgt.Attach(fresh)

	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	old.Deliver(posAt(origin, at, 10, "gps"))
	fresh.Deliver(posAt(origin.Offset(5, 0), at.Add(time.Minute), 3, "wifi"))

	got, ok := tgt.Last()
	if !ok || got.Source != "wifi" {
		t.Errorf("Last = %+v, want the fresher wifi position", got)
	}

	empty := track(t, m, "empty")
	if _, ok := empty.Last(); ok {
		t.Error("empty target reported a position")
	}
}

func TestPositionString(t *testing.T) {
	p := Position{Global: origin, Accuracy: 3.2, Source: "gps"}
	if s := p.String(); s == "" {
		t.Error("empty String")
	}
	p.RoomID = "N1"
	if s := p.String(); s == "" {
		t.Error("empty String with room")
	}
}

func TestPositionDistanceTo(t *testing.T) {
	a := Position{Global: origin}
	b := Position{Global: origin.Offset(100, 45)}
	d := a.DistanceTo(b)
	if d < 99 || d > 101 {
		t.Errorf("DistanceTo = %v, want ~100", d)
	}
}

func TestNotifyRoomChange(t *testing.T) {
	p := NewProvider("wifi", ProviderInfo{RoomLevel: true}, nil)
	var events []string
	cancel := p.NotifyRoomChange(func(room string, _ Position) {
		events = append(events, room)
	})
	defer cancel()

	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	deliver := func(room string) {
		p.Deliver(Position{Time: at, Global: origin, RoomID: room})
		at = at.Add(time.Second)
	}
	deliver("N1")
	deliver("N1") // no change
	deliver("corridor")
	deliver("corridor")
	deliver("") // outdoors
	deliver("N1")

	want := []string{"N1", "corridor", "", "N1"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, events[i], want[i])
		}
	}
}
