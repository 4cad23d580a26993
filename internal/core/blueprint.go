package core

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by Blueprint operations.
var (
	// ErrBlueprintFrozen indicates a structural edit after the first
	// instantiation.
	ErrBlueprintFrozen = errors.New("core: blueprint is frozen after first instantiation")
	// ErrOverrideRequired indicates a placeholder component that was not
	// supplied a factory at instantiation time.
	ErrOverrideRequired = errors.New("core: blueprint component requires an override factory")
	// ErrUnknownOverride indicates an override for a component ID the
	// blueprint does not declare.
	ErrUnknownOverride = errors.New("core: override for unknown blueprint component")
)

// ComponentFactory creates a fresh Processing Component instance under
// the given ID. Factories are invoked once per Blueprint instantiation
// and must be safe for concurrent use: a shared blueprint may be
// instantiated from many goroutines at once (one pipeline instance per
// tracked target). Shared immutable dependencies (building model,
// fingerprint database) are captured by closure; mutable per-run state
// must live inside the returned component.
type ComponentFactory func(id string) Component

// FeatureFactory creates a fresh Component Feature instance. Like
// ComponentFactory it runs once per instantiation and must be safe for
// concurrent use.
type FeatureFactory func() Feature

type blueprintComponent struct {
	id      string
	factory ComponentFactory // nil marks a placeholder requiring an override
	tag     string           // identity tag for revision diffing ("" = factory identity)
}

type blueprintFeature struct {
	component string
	factory   FeatureFactory
	tag       string // identity tag for revision diffing ("" = factory identity)
}

// Blueprint is the immutable structure of a positioning pipeline:
// component slots, wiring and attached features, without any running
// state. It separates what §2.1 declares once (the pipeline definition,
// whether hand-wired, configured or dependency-resolved) from the live
// Graph instances executing it — one blueprint, many independent
// instances.
//
// A blueprint is built with AddComponent/Connect/AttachFeature and
// freezes permanently on the first Instantiate or Validate call; from
// then on it is safe to share across goroutines.
type Blueprint struct {
	mu     sync.Mutex
	frozen bool
	comps  []blueprintComponent
	index  map[string]int
	conns  []Edge
	feats  []blueprintFeature
}

// NewBlueprint returns an empty blueprint.
func NewBlueprint() *Blueprint {
	return &Blueprint{index: make(map[string]int)}
}

// AddComponent declares a component slot. A nil factory declares a
// placeholder — typically a sensor bound to per-target hardware or the
// application sink — that every Instantiate call must fill with
// WithComponentOverride.
func (b *Blueprint) AddComponent(id string, factory ComponentFactory) error {
	if id == "" {
		return fmt.Errorf("%w: empty component id", ErrInvalidSpec)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.frozen {
		return ErrBlueprintFrozen
	}
	if _, exists := b.index[id]; exists {
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	b.index[id] = len(b.comps)
	b.comps = append(b.comps, blueprintComponent{id: id, factory: factory})
	return nil
}

// TagComponent sets the identity tag BlueprintSet.Diff uses to decide
// whether two revisions' slots hold "the same" component. Untagged
// slots compare by factory code identity, which distinguishes any two
// distinct function literals; tags let blueprints built through a
// registry (where every slot shares one generic closure) or across
// separately constructed revisions declare identity explicitly. Two
// slots with the same non-empty tag are considered unchanged even when
// their factories differ — the operator's contract that their state is
// compatible.
func (b *Blueprint) TagComponent(id, tag string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.frozen {
		return ErrBlueprintFrozen
	}
	i, ok := b.index[id]
	if !ok {
		return fmt.Errorf("%w: component %q", ErrNotFound, id)
	}
	b.comps[i].tag = tag
	return nil
}

// Connect declares an edge from from's output to input port port of to.
// Kind and feature compatibility are validated at instantiation time,
// when component specs exist; here only the referenced slots and basic
// port occupancy are checked.
func (b *Blueprint) Connect(from, to string, port int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.frozen {
		return ErrBlueprintFrozen
	}
	if _, ok := b.index[from]; !ok {
		return fmt.Errorf("%w: component %q", ErrNotFound, from)
	}
	if _, ok := b.index[to]; !ok {
		return fmt.Errorf("%w: component %q", ErrNotFound, to)
	}
	if port < 0 {
		return fmt.Errorf("%w: %q port %d", ErrPortIndex, to, port)
	}
	for _, e := range b.conns {
		if e.To == to && e.Port == port {
			return fmt.Errorf("%w: %q port %d", ErrPortBusy, to, port)
		}
	}
	b.conns = append(b.conns, Edge{From: from, To: to, Port: port})
	return nil
}

// AttachTaggedFeature declares a Component Feature on a component slot,
// under an identity tag for revision diffing (see TagComponent for the
// tag semantics). A fresh feature instance is created for every
// pipeline instance.
func (b *Blueprint) AttachTaggedFeature(componentID, tag string, factory FeatureFactory) error {
	if factory == nil {
		return fmt.Errorf("%w: nil feature factory for %q", ErrInvalidSpec, componentID)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.frozen {
		return ErrBlueprintFrozen
	}
	if _, ok := b.index[componentID]; !ok {
		return fmt.Errorf("%w: component %q", ErrNotFound, componentID)
	}
	b.feats = append(b.feats, blueprintFeature{component: componentID, factory: factory, tag: tag})
	return nil
}

// Components returns the declared component IDs in declaration order.
func (b *Blueprint) Components() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, len(b.comps))
	for i, c := range b.comps {
		out[i] = c.id
	}
	return out
}

// Placeholders returns the IDs of components that need an override
// factory at instantiation time, in declaration order.
func (b *Blueprint) Placeholders() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, c := range b.comps {
		if c.factory == nil {
			out = append(out, c.id)
		}
	}
	return out
}

// InstantiateOption configures one Instantiate call.
type InstantiateOption func(*instantiateConfig)

type instantiateConfig struct {
	overrides map[string]ComponentFactory
	optional  map[string]ComponentFactory
}

// WithComponentOverride substitutes the factory for one component slot
// in this instantiation only — how a shared blueprint is bound to
// per-target sensors and sinks.
func WithComponentOverride(id string, factory ComponentFactory) InstantiateOption {
	return func(c *instantiateConfig) {
		if c.overrides == nil {
			c.overrides = make(map[string]ComponentFactory)
		}
		c.overrides[id] = factory
	}
}

// WithOptionalOverride is WithComponentOverride for a slot the
// blueprint may not declare: unknown IDs are silently ignored instead
// of failing with ErrUnknownOverride. This is how one per-session
// override set serves every revision in a BlueprintSet — a "wifi"
// sensor binding is supplied unconditionally but only takes effect on
// revisions that declare the slot. WithComponentOverride wins when both
// name the same slot.
func WithOptionalOverride(id string, factory ComponentFactory) InstantiateOption {
	return func(c *instantiateConfig) {
		if c.optional == nil {
			c.optional = make(map[string]ComponentFactory)
		}
		c.optional[id] = factory
	}
}

// factoryFor resolves the effective factory for a slot: a required
// override wins, then an optional override, then the declared factory
// (nil for an unbound placeholder).
func (c *instantiateConfig) factoryFor(bc blueprintComponent) ComponentFactory {
	if f, ok := c.overrides[bc.id]; ok {
		return f
	}
	if f, ok := c.optional[bc.id]; ok {
		return f
	}
	return bc.factory
}

// freeze marks the blueprint immutable and returns stable references to
// its definition slices (never mutated once frozen).
func (b *Blueprint) freeze() ([]blueprintComponent, []Edge, []blueprintFeature, map[string]int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.frozen = true
	return b.comps, b.conns, b.feats, b.index
}

// Instantiate builds a fresh, independent Graph from the blueprint:
// every component and feature factory runs anew, so no running state is
// shared between instances. The first call freezes the blueprint;
// afterwards Instantiate is safe to call concurrently.
func (b *Blueprint) Instantiate(opts ...InstantiateOption) (*Graph, error) {
	var cfg instantiateConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	comps, conns, feats, index := b.freeze()
	for id := range cfg.overrides {
		if _, ok := index[id]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownOverride, id)
		}
	}

	g := New()
	if err := buildInto(g, comps, conns, feats, &cfg); err != nil {
		return nil, err
	}
	return g, nil
}

// buildInto materializes a frozen blueprint definition into g — the
// shared body of Instantiate and the migration rollback path, which
// rebuilds a prior revision into a live (quiescent) graph.
func buildInto(g *Graph, comps []blueprintComponent, conns []Edge, feats []blueprintFeature, cfg *instantiateConfig) error {
	for _, c := range comps {
		factory := cfg.factoryFor(c)
		if factory == nil {
			return fmt.Errorf("%w: %q", ErrOverrideRequired, c.id)
		}
		comp := factory(c.id)
		if comp == nil {
			return fmt.Errorf("%w: factory for %q returned nil", ErrInvalidSpec, c.id)
		}
		if comp.ID() != c.id {
			return fmt.Errorf("%w: factory for %q returned component %q",
				ErrInvalidSpec, c.id, comp.ID())
		}
		if _, err := g.Add(comp); err != nil {
			return fmt.Errorf("blueprint: add %q: %w", c.id, err)
		}
	}
	// Features before connections: connection validation may require
	// capabilities the features provide.
	for _, f := range feats {
		node, _ := g.Node(f.component)
		if err := node.AttachFeature(f.factory()); err != nil {
			return fmt.Errorf("blueprint: attach feature to %q: %w", f.component, err)
		}
	}
	for _, e := range conns {
		if err := g.Connect(e.From, e.To, e.Port); err != nil {
			return fmt.Errorf("blueprint: connect %s -> %s:%d: %w", e.From, e.To, e.Port, err)
		}
	}
	return nil
}
