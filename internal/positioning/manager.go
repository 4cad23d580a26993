package positioning

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"perpos/internal/geo"
)

// ErrNoProvider indicates that no registered provider matches the
// criteria.
var ErrNoProvider = errors.New("positioning: no provider matches criteria")

// ProviderSource supplies the providers for a tracked target on demand
// — the seam through which a session runtime spins up a per-target
// pipeline instance the moment an application starts tracking.
// Implementations must be safe for concurrent use and must not call
// back into the Manager from ProvidersFor.
type ProviderSource interface {
	// ProvidersFor returns the providers serving the given target,
	// creating backing resources as needed. Repeated calls with the same
	// ID must be idempotent (return the same live providers).
	ProvidersFor(id string) ([]*Provider, error)
}

// ReleasingSource is an optional ProviderSource extension notified when
// a target stops being tracked, so per-target backing resources
// (pipeline instances, goroutines) can be reclaimed.
type ReleasingSource interface {
	ProviderSource
	// Release frees the resources backing the target's providers. It
	// must tolerate IDs it never served.
	Release(id string)
}

// Criteria selects a location provider, in the style of the Java
// Location API (JSR-179) the paper models its top layer on.
type Criteria struct {
	// Technology restricts to one source ("" accepts any).
	Technology string
	// MaxAccuracy is the worst acceptable typical accuracy in metres
	// (0 accepts any).
	MaxAccuracy float64
	// RoomLevel requires symbolic room output.
	RoomLevel bool
	// RequiredFeatures must all be reachable through the provider —
	// applications can demand the seams they need (e.g. "likelihood").
	RequiredFeatures []string
}

// Manager is the provider registry applications request providers from.
// The zero value is ready to use.
type Manager struct {
	mu        sync.Mutex
	providers map[string]*Provider
	order     []string
	targets   map[string]*Target
	source    ProviderSource
}

// BindSource installs the provider source consulted when a new target
// is tracked. Targets tracked before the bind keep their providers.
func (m *Manager) BindSource(s ProviderSource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.source = s
}

// Register adds a provider under its name.
func (m *Manager) Register(p *Provider) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.providers == nil {
		m.providers = make(map[string]*Provider)
	}
	if _, ok := m.providers[p.Name()]; ok {
		return fmt.Errorf("positioning: provider %q already registered", p.Name())
	}
	m.providers[p.Name()] = p
	m.order = append(m.order, p.Name())
	return nil
}

// Providers returns the registered providers in registration order.
func (m *Manager) Providers() []*Provider {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Provider, 0, len(m.order))
	for _, name := range m.order {
		out = append(out, m.providers[name])
	}
	return out
}

// Provider returns the best provider matching the criteria: among the
// matches, the one with the best (smallest) typical accuracy.
func (m *Manager) Provider(c Criteria) (*Provider, error) {
	var best *Provider
	for _, p := range m.Providers() {
		if !matches(p, c) {
			continue
		}
		if best == nil || p.Info().TypicalAccuracy < best.Info().TypicalAccuracy {
			best = p
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: %+v", ErrNoProvider, c)
	}
	return best, nil
}

func matches(p *Provider, c Criteria) bool {
	if p.Availability() == OutOfService {
		// JSR-179: an out-of-service provider never satisfies criteria.
		return false
	}
	info := p.Info()
	if c.Technology != "" && info.Technology != c.Technology {
		return false
	}
	if c.MaxAccuracy > 0 && (info.TypicalAccuracy == 0 || info.TypicalAccuracy > c.MaxAccuracy) {
		return false
	}
	if c.RoomLevel && !info.RoomLevel {
		return false
	}
	for _, f := range c.RequiredFeatures {
		if _, ok := p.Feature(f); !ok {
			return false
		}
	}
	return true
}

// Target is a tracked entity with one or more attached providers (§2.3:
// "definition of tracked targets, which may have several sensors
// attached to them").
type Target struct {
	id string

	mu        sync.Mutex
	providers []*Provider
}

// ID returns the target identifier.
func (t *Target) ID() string { return t.id }

// Last returns the freshest position across the target's providers.
func (t *Target) Last() (Position, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var best Position
	found := false
	for _, p := range t.providers {
		pos, ok := p.Last()
		if !ok {
			continue
		}
		if !found || pos.Time.After(best.Time) {
			best = pos
			found = true
		}
	}
	return best, found
}

// Attach adds a provider to the target.
func (t *Target) Attach(p *Provider) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.providers = append(t.providers, p)
}

// Providers returns the target's attached providers.
func (t *Target) Providers() []*Provider {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Provider(nil), t.providers...)
}

// Track registers (or returns) the target with the given ID. When a
// provider source is bound, the target's providers are obtained from it
// — for a session runtime source this spins up the target's pipeline
// instance — and when the source fails, nothing is registered and the
// error is returned. ProvidersFor runs outside the manager lock; if two
// callers race on the same new ID, both consult the source (which must
// be idempotent) and one registration wins.
func (m *Manager) Track(id string) (*Target, error) {
	m.mu.Lock()
	if t, ok := m.targets[id]; ok {
		m.mu.Unlock()
		return t, nil
	}
	src := m.source
	m.mu.Unlock()

	var provs []*Provider
	if src != nil {
		var err error
		provs, err = src.ProvidersFor(id)
		if err != nil {
			return nil, fmt.Errorf("positioning: track %q: %w", id, err)
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.targets == nil {
		m.targets = make(map[string]*Target)
	}
	if t, ok := m.targets[id]; ok {
		return t, nil
	}
	t := &Target{id: id, providers: provs}
	m.targets[id] = t
	return t, nil
}

// Untrack removes the target and, when the bound source supports
// release, frees the target's backing resources. The release runs
// outside the manager lock so a runtime source can tear down its
// session without lock-order coupling. Unknown IDs are ignored.
func (m *Manager) Untrack(id string) {
	m.mu.Lock()
	_, ok := m.targets[id]
	if ok {
		delete(m.targets, id)
	}
	src := m.source
	m.mu.Unlock()
	if !ok {
		return
	}
	if rs, isReleasing := src.(ReleasingSource); isReleasing {
		rs.Release(id)
	}
}

// Targets returns all tracked targets, sorted by ID.
func (m *Manager) Targets() []*Target {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Target, 0, len(m.targets))
	for _, t := range m.targets {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Neighbor is one k-nearest result.
type Neighbor struct {
	Target   *Target
	Position Position
	Distance float64
}

// KNearest returns the k tracked targets nearest to the given point,
// by last known position (§2.3 "the k-nearest targets"). k <= 0 returns
// all positioned targets.
func (m *Manager) KNearest(from geo.Point, k int) []Neighbor {
	var out []Neighbor
	for _, t := range m.Targets() {
		if pos, ok := t.Last(); ok {
			out = append(out, Neighbor{Target: t, Position: pos, Distance: from.DistanceTo(pos.Global)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return neighborLess(out[i], out[j]) })
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// neighborLess orders neighbors by distance, tie-broken by target ID
// for determinism.
func neighborLess(a, b Neighbor) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.Target.ID() < b.Target.ID()
}
