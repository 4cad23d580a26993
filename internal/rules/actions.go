package rules

import (
	"errors"
	"fmt"

	"perpos/internal/core"
)

// Action is a reversible structural edit. Apply and Revert run inside
// the runtime's pause seam (no source steps meanwhile), on the
// supervisor goroutine. Edges declares the action's structural
// footprint so the engine can keep rules off edges the health
// supervisor has claimed for degradation routing.
type Action interface {
	// Describe returns a short human-readable summary for events.
	Describe() string
	// Edges returns the edges the action disconnects, connects, or
	// splices. Actions with no structural footprint (feature attach)
	// return nil and never conflict with supervisor reroutes.
	Edges() []core.Edge
	// Apply performs the edit. A failed Apply must leave the graph as
	// it found it (unwinding any partial work).
	Apply(g *core.Graph) error
	// Revert undoes a successful Apply. Revert is retried on failure,
	// so it must tolerate finding its own work half-done.
	Revert(g *core.Graph) error
}

// InsertAction splices a new component, by its input port 0, into an
// existing edge — the §3.1 case study (insert a filter when accuracy
// degrades). Each engagement builds a fresh component instance, so
// reverting discards any filter state rather than freezing it for the
// next engagement.
type InsertAction struct {
	// ID is the node ID the built component must carry.
	ID string
	// Build constructs the component; called once per engagement.
	Build core.ComponentFactory
	// From → To:Port is the edge to splice into.
	From string
	To   string
	Port int
}

// Describe implements Action.
func (a *InsertAction) Describe() string {
	return fmt.Sprintf("insert %s between %s and %s", a.ID, a.From, a.To)
}

// Edges implements Action: the spliced edge plus the two halves it
// becomes, so a supervisor claim on any of them blocks the rule.
func (a *InsertAction) Edges() []core.Edge {
	return []core.Edge{
		{From: a.From, To: a.To, Port: a.Port},
		{From: a.From, To: a.ID, Port: 0},
		{From: a.ID, To: a.To, Port: a.Port},
	}
}

// Apply implements Action. InsertBetween unwinds partial failures
// itself, so a failed Apply leaves the original edge intact.
func (a *InsertAction) Apply(g *core.Graph) error {
	return g.InsertBetween(a.Build(a.ID), a.From, a.To, a.Port, 0)
}

// Revert implements Action: remove the inserted node (dropping both
// half-edges) and restore the original connection. A missing node is
// tolerated so a retried revert converges.
func (a *InsertAction) Revert(g *core.Graph) error {
	if _, ok := g.Node(a.ID); ok {
		if err := g.Remove(a.ID); err != nil {
			return err
		}
	}
	return g.Connect(a.From, a.To, a.Port)
}

// SwapAction breaks one edge and makes another — the §3.3 case study
// (swap provider slots), reusing the supervisor's Break/Make reroute
// model.
type SwapAction struct {
	Break core.Edge
	Make  core.Edge
}

// Describe implements Action.
func (a *SwapAction) Describe() string {
	return fmt.Sprintf("swap %s->%s for %s->%s", a.Break.From, a.Break.To, a.Make.From, a.Make.To)
}

// Edges implements Action.
func (a *SwapAction) Edges() []core.Edge { return []core.Edge{a.Break, a.Make} }

// Apply implements Action. If making the new edge fails the broken one
// is restored, so a failed Apply is a no-op.
func (a *SwapAction) Apply(g *core.Graph) error {
	if err := g.Disconnect(a.Break.From, a.Break.To, a.Break.Port); err != nil {
		return err
	}
	if err := g.Connect(a.Make.From, a.Make.To, a.Make.Port); err != nil {
		return errors.Join(err, g.Connect(a.Break.From, a.Break.To, a.Break.Port))
	}
	return nil
}

// Revert implements Action: drop the made edge (tolerating its
// absence, e.g. after a partially failed earlier revert) and restore
// the broken one.
func (a *SwapAction) Revert(g *core.Graph) error {
	if hasEdge(g, a.Make) {
		if err := g.Disconnect(a.Make.From, a.Make.To, a.Make.Port); err != nil {
			return err
		}
	}
	if hasEdge(g, a.Break) {
		return nil
	}
	return g.Connect(a.Break.From, a.Break.To, a.Break.Port)
}

// FeatureAction attaches a feature to a node — the §3.2 case study
// (change power strategy by attaching an energy strategy feature). It
// has no structural footprint, so it never conflicts with supervisor
// reroutes. It is an immutable value: every session of a config shares
// one, so Apply and Revert keep no state on it.
type FeatureAction struct {
	// Target is the node to attach to.
	Target string
	// Name labels the action in events; detaching uses the built
	// feature's own FeatureName, which may differ from a config-side
	// factory key.
	Name string
	// Build constructs the feature; called once per engagement and once
	// per revert, for the name to detach.
	Build func() core.Feature
}

// Describe implements Action.
func (a *FeatureAction) Describe() string {
	return fmt.Sprintf("attach feature %s to %s", a.Name, a.Target)
}

// Edges implements Action: no structural footprint.
func (a *FeatureAction) Edges() []core.Edge { return nil }

// Apply implements Action.
func (a *FeatureAction) Apply(g *core.Graph) error {
	n, ok := g.Node(a.Target)
	if !ok {
		return fmt.Errorf("rules: feature target %q not in graph", a.Target)
	}
	return n.AttachFeature(a.Build())
}

// Revert implements Action. An already-detached feature is tolerated.
func (a *FeatureAction) Revert(g *core.Graph) error {
	n, ok := g.Node(a.Target)
	if !ok {
		return fmt.Errorf("rules: feature target %q not in graph", a.Target)
	}
	name := a.Build().FeatureName()
	if _, ok := n.Feature(name); !ok {
		return nil
	}
	return n.DetachFeature(name)
}

// hasEdge reports whether the graph currently carries the edge.
func hasEdge(g *core.Graph, e core.Edge) bool {
	for _, have := range g.Edges() {
		if have == e {
			return true
		}
	}
	return false
}
