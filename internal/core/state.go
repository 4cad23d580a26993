package core

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Errors returned by the state snapshot/restore machinery.
var (
	// ErrNotStateful indicates a state operation on a component that
	// exposes no serializable state.
	ErrNotStateful = errors.New("core: component is not stateful")
)

// StateFeatureName is the well-known name of the Component Feature that
// exposes its host's serializable state.
const StateFeatureName = "state"

// StateAccess is the functional interface for component-state
// serialization. Retrieved from a node via the "state" Component
// Feature (the paper's state-exposure mechanism: features "expose and
// manipulate component state") and type-asserted by callers, exactly
// like the Fig. 5 getFeature(HDOP.class) pattern.
//
// MarshalState must capture every bit of mutable processing state the
// component would need to continue after a restart — filter estimates,
// replay positions, counters. UnmarshalState must fully replace the
// current state with the decoded one; it is called on a freshly
// constructed instance during recovery, never mid-propagation.
type StateAccess interface {
	MarshalState() ([]byte, error)
	UnmarshalState(data []byte) error
}

// StateFeature is the Component Feature that advertises and mediates
// access to its host's state. Attaching it to a non-stateful component
// is allowed (the capability is simply inert); marshalling through it
// then fails with ErrNotStateful.
type StateFeature struct {
	host FeatureHost
}

var (
	_ Feature         = (*StateFeature)(nil)
	_ BindableFeature = (*StateFeature)(nil)
	_ StateAccess     = (*StateFeature)(nil)
)

// newStateFeature returns the state-exposure feature.
func newStateFeature() *StateFeature { return &StateFeature{} }

// FeatureName implements Feature.
func (f *StateFeature) FeatureName() string { return StateFeatureName }

// Bind implements BindableFeature.
func (f *StateFeature) Bind(host FeatureHost) { f.host = host }

// MarshalState implements StateAccess by delegating to the host.
func (f *StateFeature) MarshalState() ([]byte, error) {
	if f.host == nil {
		return nil, fmt.Errorf("%w: state feature not bound", ErrNotStateful)
	}
	sc, ok := f.host.Component().(StateAccess)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotStateful, f.host.Component().ID())
	}
	return sc.MarshalState()
}

// UnmarshalState implements StateAccess by delegating to the host.
func (f *StateFeature) UnmarshalState(data []byte) error {
	if f.host == nil {
		return fmt.Errorf("%w: state feature not bound", ErrNotStateful)
	}
	sc, ok := f.host.Component().(StateAccess)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotStateful, f.host.Component().ID())
	}
	return sc.UnmarshalState(data)
}

// NodeState is the serializable snapshot of one graph node: its logical
// clock, span bookkeeping and (for stateful components) the component's
// own marshalled state.
type NodeState struct {
	// ID is the component ID the state belongs to.
	ID string `json:"id"`
	// Clock is the node's logical clock (number of emissions) — restored
	// so resumed emissions continue the logical timeline monotonically.
	Clock LogicalTime `json:"clock"`
	// Emitted mirrors the span-grouping flag.
	Emitted bool `json:"emitted,omitempty"`
	// Pending carries the open consumption spans.
	Pending []Span `json:"pending,omitempty"`
	// Component is the component's own serialized state (JSON produced
	// by its MarshalState), or nil for stateless components.
	Component json.RawMessage `json:"component,omitempty"`
}

// GraphState is the serializable snapshot of a whole graph's running
// state. Structure (nodes, edges, features) is NOT captured — that is
// the Blueprint's job; GraphState carries only what a freshly
// instantiated copy of the same blueprint needs to continue where the
// snapshot was taken.
type GraphState struct {
	Nodes []NodeState `json:"nodes"`
}

// stateAccessLocked returns the node's state serializer: the attached
// "state" Component Feature when present, else the component's own
// StateAccess implementation. Called with g.mu held (read or write).
func (n *Node) stateAccessLocked() (StateAccess, bool) {
	if f, ok := n.featureLocked(StateFeatureName); ok {
		if sa, ok := f.(StateAccess); ok {
			return sa, true
		}
	}
	sa, ok := n.comp.(StateAccess)
	return sa, ok
}

// snapshotStateLocked captures the node's running state. Called with
// g.mu held.
func (n *Node) snapshotStateLocked() (NodeState, error) {
	st := NodeState{
		ID:      n.ID(),
		Clock:   n.clock,
		Emitted: n.emitted,
		Pending: n.currentSpans(),
	}
	if sa, ok := n.stateAccessLocked(); ok {
		data, err := sa.MarshalState()
		if err != nil {
			return NodeState{}, fmt.Errorf("core: marshal state of %q: %w", n.ID(), err)
		}
		st.Component = data
	}
	return st, nil
}

// restoreStateLocked rehydrates the node from a snapshot. Called with
// g.mu held.
func (n *Node) restoreStateLocked(st NodeState) error {
	n.clock = st.Clock
	n.emitted = st.Emitted
	n.pending = append(n.pending[:0], st.Pending...)
	if len(st.Component) == 0 {
		return nil
	}
	sa, ok := n.stateAccessLocked()
	if !ok {
		return fmt.Errorf("%w: %q has checkpointed component state", ErrNotStateful, n.ID())
	}
	if err := sa.UnmarshalState(st.Component); err != nil {
		return fmt.Errorf("core: restore state of %q: %w", n.ID(), err)
	}
	return nil
}

// SnapshotState captures the running state of every node in the graph:
// logical clocks, span bookkeeping and the serialized state of every
// stateful component (via its "state" feature or its own StateAccess).
// The graph must be quiescent — it fails with ErrRunning while the
// graph is started, outside Graph.Pause, the seam runtime.Session's
// Checkpoint captures through.
func (g *Graph) SnapshotState() (GraphState, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.running.Load() {
		return GraphState{}, ErrRunning
	}
	gs := GraphState{Nodes: make([]NodeState, 0, len(g.order))}
	for _, id := range g.order {
		st, err := g.nodes[id].snapshotStateLocked()
		if err != nil {
			return GraphState{}, err
		}
		gs.Nodes = append(gs.Nodes, st)
	}
	return gs, nil
}

// RestoreState rehydrates a freshly instantiated graph from a snapshot
// taken of a structurally identical instance: logical clocks and
// component state are replayed onto the matching nodes. Nodes present
// in the snapshot but absent from the graph are skipped (the blueprint
// may have been adapted since the checkpoint); nodes in the graph but
// absent from the snapshot keep their fresh zero state. Like
// SnapshotState it requires a quiescent graph.
func (g *Graph) RestoreState(gs GraphState) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.running.Load() {
		return ErrRunning
	}
	var errs []error
	for _, st := range gs.Nodes {
		n, ok := g.nodes[st.ID]
		if !ok {
			continue
		}
		if err := n.restoreStateLocked(st); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
