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

// StateAccess is the functional interface for component-state
// serialization, implemented by stateful components themselves.
// Graph.SnapshotState and RestoreState type-assert each node's
// component to it; a component that does not implement it is
// stateless.
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

// snapshotStateLocked captures the node's running state. Called with
// g.mu held.
func (n *Node) snapshotStateLocked() (NodeState, error) {
	st := NodeState{
		ID:      n.ID(),
		Clock:   n.clock,
		Emitted: n.emitted,
		Pending: n.currentSpans(),
	}
	if sa, ok := n.comp.(StateAccess); ok {
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
	sa, ok := n.comp.(StateAccess)
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
// stateful component (via its own StateAccess).
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
