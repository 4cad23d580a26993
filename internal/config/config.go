// Package config reifies declarative JSON pipeline definitions into
// blueprints — the second of the paper's three wiring mechanisms:
// connections "established either by direct calls to the graph
// manipulation API, based on explicitly defined system level
// configurations or through dynamic resolution of dependencies"
// (§2.1). A definition becomes one core.Blueprint (or
// core.BlueprintSet) that callers instantiate, never a live graph.
// Input ports it leaves open can be handed to the registry resolver,
// the third mechanism, which then runs once, into the blueprint.
//
// The schema holds the keys a definition has a use for: a setting with
// one value in use is a constant of the code that reads it, not a key.
// Parse rejects every other key as an unknown field.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"perpos/internal/core"
	"perpos/internal/registry"
)

// Errors returned by the loader.
var (
	// ErrUnknownType indicates a component type absent from the
	// registry.
	ErrUnknownType = errors.New("config: unknown component type")
	// ErrUnknownInstance indicates a placeholder the resolver must probe
	// that has no stand-in in the loader's Instances.
	ErrUnknownInstance = errors.New("config: unknown instance")
	// ErrUnknownFeature indicates a feature name without a factory.
	ErrUnknownFeature = errors.New("config: unknown feature")
)

// Pipeline is the JSON schema of a system-level configuration.
type Pipeline struct {
	// Name labels the pipeline.
	Name string `json:"name"`
	// Components to place in the graph. A component with a Type is
	// instantiated from the registry; one without is a placeholder that
	// each instantiation binds (sensors bound to hardware, application
	// sinks) with core.WithComponentOverride.
	Components []ComponentDef `json:"components"`
	// Connections wires output ports to input ports.
	Connections []ConnectionDef `json:"connections"`
	// Features attaches Component Features by factory name.
	Features []FeatureDef `json:"features,omitempty"`
	// Resolve, when true, runs registry dependency resolution for any
	// input ports the explicit connections left open.
	Resolve bool `json:"resolve,omitempty"`
	// Supervision declares the pipeline's self-healing policy: breaker
	// thresholds, watchdog deadlines, restart backoff and degradation
	// reroutes. Consumed by the session runtime; nil disables
	// supervision.
	Supervision *SupervisionDef `json:"supervision,omitempty"`
	// Checkpoint declares durable session checkpointing: where state
	// snapshots live on disk and how often running sessions persist.
	// Consumed by the session runtime; nil disables checkpointing.
	Checkpoint *CheckpointDef `json:"checkpoint,omitempty"`
	// Chaos declares a fault-injection script: timed kill/heal steps
	// against chaos-wrapped components. Consumed by soak tests and
	// perpos-run's chaos mode; nil means no injected faults.
	Chaos *ChaosDef `json:"chaos,omitempty"`
	// Revisions declares versioned variants of the pipeline: each entry
	// is a complete layout (components, connections, features) that
	// becomes one revision of a core.BlueprintSet, in order — revision 1
	// first. When set, the top-level Components/Connections/Features are
	// ignored by BlueprintSet and Manager; same-ID slots with the same
	// type (or both placeholders) match, so migrations between
	// revisions keep their live instances and state.
	Revisions []RevisionDef `json:"revisions,omitempty"`
	// InitialRevision selects the revision new sessions start on
	// (0 = latest). Only meaningful with Revisions.
	InitialRevision int `json:"initial_revision,omitempty"`
	// Rules declares self-adaptation rules: conditions over live
	// signals driving reversible graph edits through the supervisor
	// sweep. Consumed by the session runtime; nil means no rules.
	Rules *RulesDef `json:"rules,omitempty"`
}

// RevisionDef is one complete pipeline layout inside a versioned
// definition — the top-level pipeline's structural fields but Resolve:
// a revision is wired explicitly.
type RevisionDef struct {
	Components  []ComponentDef  `json:"components"`
	Connections []ConnectionDef `json:"connections"`
	Features    []FeatureDef    `json:"features,omitempty"`
}

// ComponentDef places one component.
type ComponentDef struct {
	ID   string `json:"id"`
	Type string `json:"type,omitempty"`
}

// ConnectionDef wires from's output to to's input port.
type ConnectionDef struct {
	From string `json:"from"`
	To   string `json:"to"`
	Port int    `json:"port"`
}

// FeatureDef attaches a feature to a component.
type FeatureDef struct {
	Component string `json:"component"`
	Feature   string `json:"feature"`
}

// Parse reads a Pipeline from JSON.
func Parse(r io.Reader) (Pipeline, error) {
	var p Pipeline
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Pipeline{}, fmt.Errorf("config: parse pipeline: %w", err)
	}
	return p, nil
}

// Loader makes blueprints from pipeline definitions.
type Loader struct {
	// Registry supplies component types (may be nil if every component
	// is a placeholder).
	Registry *registry.Registry
	// Instances holds stand-ins for placeholders, which the resolution
	// probe of a pipeline with Resolve needs for their specs. A stand-in
	// joins only that throwaway probe graph, never an instance.
	Instances map[string]core.Component
	// Features maps feature names to factories.
	Features map[string]func() core.Feature
}

// Blueprint reifies the pipeline definition into a reusable
// core.Blueprint: declared components become factory slots (registry
// factories for typed defs, placeholders otherwise), and — when the
// pipeline requests Resolve — registry dependency resolution runs ONCE
// against a probe instance, with the resolved component set and wiring
// recorded in the blueprint. Every later Instantiate replays the
// resolved structure with fresh component instances and pays no
// resolution cost.
//
// Placeholder slots must be filled per instantiation with
// core.WithComponentOverride; when the pipeline needs resolution, a
// probe stand-in is taken from Instances.
func (l *Loader) Blueprint(p Pipeline) (*core.Blueprint, error) {
	return l.buildBlueprint(layout{p.Components, p.Connections, p.Features, p.Resolve})
}

// BlueprintSet reifies a versioned pipeline definition into a named
// core.BlueprintSet: each RevisionDef becomes one frozen revision, in
// declared order. A definition without Revisions yields a
// single-revision set wrapping Blueprint(p). Typed slots are
// identity-tagged by their registry type and features by their factory
// name, and two placeholders with one ID always match, so a revision
// diff sees structurally identical slots as Unchanged — the property
// migrations rely on to carry live state.
func (l *Loader) BlueprintSet(p Pipeline) (*core.BlueprintSet, error) {
	name := p.Name
	if name == "" {
		name = "pipeline"
	}
	set := core.NewBlueprintSet(name)
	if len(p.Revisions) == 0 {
		bp, err := l.Blueprint(p)
		if err != nil {
			return nil, err
		}
		if _, err := set.Add(bp); err != nil {
			return nil, fmt.Errorf("config: blueprint set: %w", err)
		}
		return set, nil
	}
	for i, rev := range p.Revisions {
		bp, err := l.buildBlueprint(layout{rev.Components, rev.Connections, rev.Features, false})
		if err != nil {
			return nil, fmt.Errorf("config: revision %d: %w", i+1, err)
		}
		if _, err := set.Add(bp); err != nil {
			return nil, fmt.Errorf("config: revision %d: %w", i+1, err)
		}
	}
	return set, nil
}

// layout is the structural subset a blueprint is built from — the
// top-level pipeline's fields or one RevisionDef's.
type layout struct {
	components  []ComponentDef
	connections []ConnectionDef
	features    []FeatureDef
	resolve     bool
}

func (l *Loader) buildBlueprint(p layout) (*core.Blueprint, error) {
	type slot struct {
		id      string
		tag     string // identity tag for revision diffing ("" = placeholder)
		factory core.ComponentFactory
	}
	slots := make([]slot, 0, len(p.components))
	for _, def := range p.components {
		if def.Type == "" {
			slots = append(slots, slot{id: def.ID})
			continue
		}
		if l.Registry == nil {
			return nil, fmt.Errorf("%w: %q (loader has no registry)", ErrUnknownType, def.Type)
		}
		reg, ok := l.Registry.Lookup(def.Type)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownType, def.Type)
		}
		// Every typed slot shares this one closure literal, so factory
		// pointer identity cannot distinguish types — the tag does.
		slots = append(slots, slot{id: def.ID, tag: "type:" + def.Type, factory: func(id string) core.Component { return reg.New(id) }})
	}

	type featureSlot struct {
		component string
		tag       string
		factory   core.FeatureFactory
	}
	features := make([]featureSlot, 0, len(p.features))
	for _, def := range p.features {
		factory, ok := l.Features[def.Feature]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownFeature, def.Feature)
		}
		features = append(features, featureSlot{def.Component, "feature:" + def.Feature, core.FeatureFactory(factory)})
	}

	connections := make([]core.Edge, 0, len(p.connections))
	for _, c := range p.connections {
		connections = append(connections, core.Edge{From: c.From, To: c.To, Port: c.Port})
	}

	if p.resolve {
		if l.Registry == nil {
			return nil, fmt.Errorf("config: pipeline requests resolution but loader has no registry")
		}
		// Build a throwaway probe instance, resolve it once, and record
		// the resolver's plan (created components and final wiring).
		probe := core.New()
		for _, s := range slots {
			comp, err := l.probeComponent(s.id, s.factory)
			if err != nil {
				return nil, err
			}
			if _, err := probe.Add(comp); err != nil {
				return nil, fmt.Errorf("config: add %q: %w", s.id, err)
			}
		}
		for _, f := range features {
			node, ok := probe.Node(f.component)
			if !ok {
				return nil, fmt.Errorf("config: feature on %q: component not in pipeline", f.component)
			}
			if err := node.AttachFeature(f.factory()); err != nil {
				return nil, fmt.Errorf("config: attach feature to %q: %w", f.component, err)
			}
		}
		for _, c := range connections {
			if err := probe.Connect(c.From, c.To, c.Port); err != nil {
				return nil, fmt.Errorf("config: connect %s -> %s:%d: %w", c.From, c.To, c.Port, err)
			}
		}
		plan, err := l.Registry.ResolvePlan(probe)
		if err != nil {
			return nil, fmt.Errorf("config: resolve: %w", err)
		}
		for _, inst := range plan {
			reg, ok := l.Registry.Lookup(inst.Type)
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrUnknownType, inst.Type)
			}
			slots = append(slots, slot{id: inst.ID, tag: "type:" + inst.Type, factory: func(id string) core.Component { return reg.New(id) }})
		}
		// The probe's edge set is the resolved wiring (explicit
		// connections plus everything the resolver added).
		connections = probe.Edges()
	}

	bp := core.NewBlueprint()
	for _, s := range slots {
		if err := bp.AddComponent(s.id, s.factory); err != nil {
			return nil, fmt.Errorf("config: blueprint: %w", err)
		}
		if s.tag != "" {
			if err := bp.TagComponent(s.id, s.tag); err != nil {
				return nil, fmt.Errorf("config: blueprint: %w", err)
			}
		}
	}
	for _, f := range features {
		if err := bp.AttachTaggedFeature(f.component, f.tag, f.factory); err != nil {
			return nil, fmt.Errorf("config: blueprint: %w", err)
		}
	}
	for _, c := range connections {
		if err := bp.Connect(c.From, c.To, c.Port); err != nil {
			return nil, fmt.Errorf("config: blueprint: %w", err)
		}
	}
	return bp, nil
}

// probeComponent supplies a component for the resolution probe: the
// slot's own factory, or a stand-in from Instances for placeholders.
func (l *Loader) probeComponent(id string, factory core.ComponentFactory) (core.Component, error) {
	if factory != nil {
		return factory(id), nil
	}
	if comp, ok := l.Instances[id]; ok {
		return comp, nil
	}
	return nil, fmt.Errorf("%w: %q (resolution needs a stand-in in Instances to probe)", ErrUnknownInstance, id)
}
