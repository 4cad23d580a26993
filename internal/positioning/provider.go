package positioning

import (
	"sync"

	"perpos/internal/core"
	"perpos/internal/geo"
)

// FeatureLookup resolves a named feature for a provider — normally
// backed by the provider's delivery channel (channel.Channel.Feature),
// which is how Channel Features installed in the lower layers stay
// accessible "in the high-level interaction, where details are
// abstracted away" (§2.3).
type FeatureLookup func(name string) (any, bool)

// Provider is a JSR-179-style location provider: the application-facing
// handle for one positioning pipeline.
type Provider struct {
	name string
	info ProviderInfo

	mu      sync.Mutex
	last    Position
	hasLast bool
	subs    map[int]func(Position)
	// subList is an immutable snapshot of subs in registration order,
	// rebuilt on subscribe/cancel, so Deliver does not copy the
	// subscriber set on every position.
	subList   []func(Position)
	proxSubs  map[int]*proximityWatch
	avail     Availability
	availSubs map[int]func(Availability)
	nextID    int
	features  FeatureLookup
}

// ProviderInfo describes a provider for criteria matching.
type ProviderInfo struct {
	// Technology is the position source ("gps", "wifi",
	// "particle-filter", "fused").
	Technology string
	// TypicalAccuracy is the expected 1-sigma error in metres.
	TypicalAccuracy float64
	// RoomLevel reports whether positions carry symbolic room IDs.
	RoomLevel bool
}

// proximityWatch is one edge-triggered proximity registration.
type proximityWatch struct {
	center geo.Point
	radius float64
	inside bool
	fn     func(Position)
}

// NewProvider returns a provider with the given descriptive info.
// Features are resolved through lookup (nil disables feature access).
func NewProvider(name string, info ProviderInfo, lookup FeatureLookup) *Provider {
	return &Provider{
		name:     name,
		info:     info,
		subs:     make(map[int]func(Position)),
		proxSubs: make(map[int]*proximityWatch),
		features: lookup,
	}
}

// Name returns the provider name.
func (p *Provider) Name() string { return p.name }

// Info returns the provider description.
func (p *Provider) Info() ProviderInfo { return p.info }

// Last implements pull semantics: the most recent position, if any.
func (p *Provider) Last() (Position, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last, p.hasLast
}

// Subscribe implements push semantics; fn runs on the delivering
// goroutine. The returned cancel removes the subscription.
func (p *Provider) Subscribe(fn func(Position)) (cancel func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nextID
	p.nextID++
	p.subs[id] = fn
	p.rebuildSubListLocked()
	return func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		delete(p.subs, id)
		p.rebuildSubListLocked()
	}
}

// rebuildSubListLocked snapshots subs in registration order. Called with
// p.mu held; Deliver reads the snapshot and never mutates it.
func (p *Provider) rebuildSubListLocked() {
	if len(p.subs) == 0 {
		p.subList = nil
		return
	}
	lst := make([]func(Position), 0, len(p.subs))
	for id := 0; id < p.nextID; id++ {
		if fn, ok := p.subs[id]; ok {
			lst = append(lst, fn)
		}
	}
	p.subList = lst
}

// NotifyRoomChange registers a notification firing whenever the
// delivered position's symbolic room changes (including to/from "no
// room" when moving outdoors) — the symbolic counterpart of proximity
// notifications for room-level providers.
func (p *Provider) NotifyRoomChange(fn func(roomID string, pos Position)) (cancel func()) {
	var last string
	var started bool
	return p.Subscribe(func(pos Position) {
		if started && pos.RoomID == last {
			return
		}
		started = true
		last = pos.RoomID
		fn(pos.RoomID, pos)
	})
}

// NotifyProximity registers an edge-triggered notification: fn fires
// once each time the position enters the circle around center (§2.3
// "setting up location related notifications, e.g., based on proximity
// to a point").
func (p *Provider) NotifyProximity(center geo.Point, radius float64, fn func(Position)) (cancel func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nextID
	p.nextID++
	p.proxSubs[id] = &proximityWatch{center: center, radius: radius, fn: fn}
	return func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		delete(p.proxSubs, id)
	}
}

// Feature resolves a named feature through the provider — the
// Positioning Layer's translucency hook. The features "originally
// implemented in the PerPos middleware are visible as well as all
// available Channel Features" without descending to the PCL/PSL.
func (p *Provider) Feature(name string) (any, bool) {
	p.mu.Lock()
	lookup := p.features
	p.mu.Unlock()
	if lookup == nil {
		return nil, false
	}
	return lookup(name)
}

// Deliver publishes one position to pull state, subscribers and
// proximity watches. It is called by the provider's sink component.
func (p *Provider) Deliver(pos Position) {
	p.mu.Lock()
	p.last = pos
	p.hasLast = true
	subs := p.subList
	var fired []func(Position)
	for _, w := range p.proxSubs {
		inside := pos.Global.DistanceTo(w.center) <= w.radius
		if inside && !w.inside {
			fired = append(fired, w.fn)
		}
		w.inside = inside
	}
	p.mu.Unlock()

	for _, fn := range subs {
		fn(pos)
	}
	for _, fn := range fired {
		fn(pos)
	}
}

// NewProviderSink returns the Processing Component that terminates a
// pipeline into a Provider: the "application root" of the processing
// tree from the middleware's perspective. The Provider keeps the
// current position itself, so the sink retains only a single sample —
// unbounded recording would grow without limit in long-running
// sessions.
func NewProviderSink(id string, p *Provider) *core.Sink {
	return core.NewSink(id, []core.Kind{KindPosition},
		core.WithKeep(1),
		core.WithCallback(func(s core.Sample) {
			if pos, ok := s.Payload.(Position); ok {
				p.Deliver(pos)
			}
		}))
}
