// Package registry is the PerPos analogue of the OSGi service platform
// the paper built on: a typed registry of Processing Component
// factories and a dependency resolver that assembles processing graphs
// automatically from declared requirements and capabilities ("as custom
// components are added to the PerPos middleware the dependencies are
// resolved and when satisfied the components are added to the
// processing graph appropriately and the classes implementing the
// Processing Component functionality is instantiated", §2.1).
package registry

import (
	"errors"
	"fmt"
	"sync"

	"perpos/internal/core"
)

// Errors returned by registration and resolution.
var (
	// ErrDuplicate indicates a component type registered twice.
	ErrDuplicate = errors.New("registry: duplicate registration")
	// ErrUnresolvable indicates an input port no capability can satisfy.
	ErrUnresolvable = errors.New("registry: no provider for requirement")
	// ErrDepth indicates resolution exceeded the dependency-chain bound.
	ErrDepth = errors.New("registry: resolution depth exceeded")
)

// Factory instantiates a registered component type under a fresh
// instance ID.
type Factory func(instanceID string) core.Component

// Registration declares a component type: its prototype spec and
// factory.
type Registration struct {
	// Name is the unique component type name.
	Name string
	// Spec is the declared ports and capabilities of instances.
	Spec core.Spec
	// New instantiates the type.
	New Factory
}

// Registry holds component type registrations. The zero value is ready
// to use.
type Registry struct {
	mu    sync.RWMutex
	regs  map[string]Registration
	order []string
}

// Register adds a component type.
func (r *Registry) Register(reg Registration) error {
	if reg.Name == "" || reg.New == nil {
		return fmt.Errorf("registry: registration needs name and factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.regs == nil {
		r.regs = make(map[string]Registration)
	}
	if _, ok := r.regs[reg.Name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicate, reg.Name)
	}
	r.regs[reg.Name] = reg
	r.order = append(r.order, reg.Name)
	return nil
}

// Lookup returns a registration by type name.
func (r *Registry) Lookup(name string) (Registration, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.regs[name]
	return reg, ok
}

// Instantiated records one component the resolver created: its fresh
// instance ID and the registered type it came from. The pairing is what
// lets a Blueprint replay the resolved structure with new instances —
// resolution runs once, instantiation many times.
type Instantiated struct {
	ID   string
	Type string
}

// Resolve connects every unconnected input port in g, preferring
// existing nodes and instantiating registered component types when no
// existing output satisfies a requirement. Newly instantiated
// components get IDs "<type>#<n>". It returns the IDs of the components
// it instantiated, in instantiation order.
//
// Resolution is deterministic (candidates in graph insertion order,
// registrations in registration order) and backtracks: a type whose own
// requirements turn out to be unsatisfiable is removed again and the
// next candidate tried. A registration is never used recursively inside
// its own provider chain, which keeps self-feeding types (e.g. fusion
// components that consume and produce positions) from recursing.
func (r *Registry) Resolve(g *core.Graph) ([]string, error) {
	plan, err := r.ResolvePlan(g)
	ids := make([]string, len(plan))
	for i, inst := range plan {
		ids[i] = inst.ID
	}
	return ids, err
}

// ResolvePlan is Resolve returning the full instantiation plan —
// (instance ID, type) pairs in instantiation order — so callers can
// reify the resolved structure into a reusable core.Blueprint instead
// of keeping only the one live graph.
func (r *Registry) ResolvePlan(g *core.Graph) ([]Instantiated, error) {
	var created []Instantiated
	instances := make(map[string]int)

	for {
		port, ok := firstOpenPort(g)
		if !ok {
			return created, nil
		}
		sub, err := r.satisfy(g, port, instances, make(map[string]bool), 0)
		if err != nil {
			return created, err
		}
		created = append(created, sub...)
	}
}

// openPort identifies one unconnected input port.
type openPort struct {
	node *core.Node
	port int
	spec core.PortSpec
}

func firstOpenPort(g *core.Graph) (openPort, bool) {
	for _, n := range g.Nodes() {
		up := n.Upstream()
		for i, u := range up {
			if u == nil {
				return openPort{node: n, port: i, spec: n.Spec().Inputs[i]}, true
			}
		}
	}
	return openPort{}, false
}

// satisfy connects one open port, instantiating (and if necessary
// backtracking) a provider chain. path holds the registration names on
// the current recursion path. It returns the IDs it instantiated.
func (r *Registry) satisfy(g *core.Graph, p openPort, instances map[string]int, path map[string]bool, depth int) ([]Instantiated, error) {
	if depth > 32 {
		return nil, ErrDepth
	}

	// 1. An existing node whose output is compatible and not yet
	// consumed (keeps pipelines linear).
	var fallback *core.Node
	for _, cand := range g.Nodes() {
		if cand == p.node {
			continue
		}
		if !outputSatisfies(cand.Spec().Output, cand.Capabilities(), p.spec) {
			continue
		}
		if len(cand.Downstream()) == 0 {
			if err := g.Connect(cand.ID(), p.node.ID(), p.port); err == nil {
				return nil, nil
			}
			continue
		}
		if fallback == nil {
			fallback = cand
		}
	}

	// 2. Instantiate a registered type whose output fits and whose own
	// requirements can be satisfied; undo and try the next on failure.
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	r.mu.RUnlock()
	for _, name := range names {
		if path[name] {
			continue
		}
		reg, _ := r.Lookup(name)
		if !outputSatisfies(reg.Spec.Output, reg.Spec.Output.Features, p.spec) {
			continue
		}
		instances[name]++
		id := fmt.Sprintf("%s#%d", name, instances[name])
		comp := reg.New(id)
		if _, err := g.Add(comp); err != nil {
			return nil, fmt.Errorf("instantiate %q: %w", name, err)
		}
		if err := g.Connect(id, p.node.ID(), p.port); err != nil {
			_ = g.Remove(id)
			continue
		}
		created := []Instantiated{{ID: id, Type: name}}

		// Satisfy the new component's own inputs.
		path[name] = true
		node, _ := g.Node(id)
		ok := true
		for i := range reg.Spec.Inputs {
			sub, err := r.satisfy(g, openPort{node: node, port: i, spec: reg.Spec.Inputs[i]},
				instances, path, depth+1)
			if err != nil {
				ok = false
				break
			}
			created = append(created, sub...)
		}
		delete(path, name)

		if ok {
			return created, nil
		}
		// Backtrack: remove everything this attempt instantiated
		// (reverse order; Remove detaches edges).
		for i := len(created) - 1; i >= 0; i-- {
			_ = g.Remove(created[i].ID)
		}
	}

	// 3. Last resort: share an already-consumed output (fan-out).
	if fallback != nil {
		if err := g.Connect(fallback.ID(), p.node.ID(), p.port); err == nil {
			return nil, nil
		}
	}

	return nil, fmt.Errorf("%w: %s port %d (%s accepts %v, requires %v)",
		ErrUnresolvable, p.node.ID(), p.port, p.spec.Name, p.spec.Accepts, p.spec.RequiresFeatures)
}

// outputSatisfies reports whether an output (with effective feature
// capabilities) satisfies an input port's kinds and required features.
func outputSatisfies(out core.OutputSpec, capabilities []string, in core.PortSpec) bool {
	kindOK := false
	for _, k := range in.Accepts {
		if k == core.KindAny || k == out.Kind {
			kindOK = true
			break
		}
	}
	if !kindOK {
		return false
	}
	caps := make(map[string]bool, len(capabilities)+len(out.Features))
	for _, c := range capabilities {
		caps[c] = true
	}
	for _, c := range out.Features {
		caps[c] = true
	}
	for _, req := range in.RequiresFeatures {
		if !caps[req] {
			return false
		}
	}
	return true
}
