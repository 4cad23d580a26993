package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
)

// FeatureRef names one declared feature for diff reporting and
// migration bookkeeping. Name is the instantiated FeatureName (feature
// factories are cheap and side-effect free per the FeatureFactory
// contract, so the differ resolves names by running each factory once).
type FeatureRef struct {
	Component string
	Name      string
}

// BlueprintDiff is the structural difference between two blueprint
// revisions, expressed as the minimal edit taking an instance of the
// old revision to the new one.
//
// Component identity is by slot ID; whether a slot kept in both
// revisions is Unchanged or Replaced is decided by identity tag when
// both sides carry one (TagComponent), else by factory code identity,
// with a placeholder (nil factory) never equal to a bound slot.
// Unchanged components keep their live instances — and therefore their
// running state — across a migration; Replaced ones are torn down and
// rebuilt from the new revision's factory.
type BlueprintDiff struct {
	// Added, Removed, Replaced and Unchanged partition the component
	// slots of both revisions, sorted by ID.
	Added     []string
	Removed   []string
	Replaced  []string
	Unchanged []string
	// DropEdges are disconnected (old edges gone from the new revision,
	// plus every edge touching a removed or replaced component);
	// MakeEdges are connected after the component edits.
	DropEdges []Edge
	MakeEdges []Edge
	// DetachFeatures and AttachFeatures are the feature edits on
	// unchanged components; features of added/removed/replaced
	// components ride along with their node.
	DetachFeatures []FeatureRef
	AttachFeatures []FeatureRef
}

// Empty reports whether the revisions are structurally identical —
// an empty diff produces a no-op migration plan.
func (d *BlueprintDiff) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Replaced) == 0 &&
		len(d.DropEdges) == 0 && len(d.MakeEdges) == 0 &&
		len(d.DetachFeatures) == 0 && len(d.AttachFeatures) == 0
}

// diffBlueprints computes the structural diff from one revision to
// another. Both blueprints are frozen by the call (diffing, like
// instantiation, fixes the definition).
func diffBlueprints(from, to *Blueprint) *BlueprintDiff {
	return PlanMigration(from, to).Diff
}

// sameComponent decides slot identity for two revisions of the same ID:
// tags when both sides are tagged, factory code pointer otherwise, and
// a placeholder never equals a bound slot.
func sameComponent(a, b blueprintComponent) bool {
	if (a.factory == nil) != (b.factory == nil) {
		return false
	}
	if a.tag != "" && b.tag != "" {
		return a.tag == b.tag
	}
	if a.factory == nil {
		return true // both placeholders; binding is per-instance
	}
	return reflect.ValueOf(a.factory).Pointer() == reflect.ValueOf(b.factory).Pointer()
}

// featureKey is the diff identity of one declared feature.
func featureKey(f blueprintFeature) string {
	if f.tag != "" {
		return "tag:" + f.tag
	}
	return fmt.Sprintf("ptr:%x", reflect.ValueOf(f.factory).Pointer())
}

// MigrationPlan is the executable form of a BlueprintDiff: the ordered
// edit sequence Apply drives through a quiescent live graph, carrying
// the new revision's factories for added/replaced components and
// features. Plans are immutable and safe to apply to many graphs
// concurrently (each Apply touches only its own graph).
type MigrationPlan struct {
	// Diff is the structural diff the plan executes.
	Diff *BlueprintDiff

	from, to *Blueprint

	// teardown lists removed + replaced component IDs in old
	// declaration order; build lists added + replaced slots of the new
	// revision in new declaration order.
	teardown []string
	build    []blueprintComponent
	// detach are feature names removed from unchanged components;
	// attach are the new revision's feature declarations to install
	// (on added, replaced and unchanged components).
	detach []FeatureRef
	attach []blueprintFeature
}

// PlanMigration builds the migration plan from one revision to
// another, freezing both.
func PlanMigration(from, to *Blueprint) *MigrationPlan {
	oldComps, oldConns, oldFeats, _ := from.freeze()
	newComps, newConns, newFeats, _ := to.freeze()

	p := &MigrationPlan{Diff: &BlueprintDiff{}, from: from, to: to}
	d := p.Diff

	oldIdx := make(map[string]blueprintComponent, len(oldComps))
	for _, c := range oldComps {
		oldIdx[c.id] = c
	}
	newIdx := make(map[string]blueprintComponent, len(newComps))
	for _, c := range newComps {
		newIdx[c.id] = c
	}

	// changed marks components whose live instance does not survive:
	// removed, replaced, or added (no prior instance).
	changed := make(map[string]bool)
	for _, c := range oldComps {
		nc, ok := newIdx[c.id]
		switch {
		case !ok:
			d.Removed = append(d.Removed, c.id)
			changed[c.id] = true
		case !sameComponent(c, nc):
			d.Replaced = append(d.Replaced, c.id)
			changed[c.id] = true
		default:
			d.Unchanged = append(d.Unchanged, c.id)
		}
	}
	for _, c := range newComps {
		if _, ok := oldIdx[c.id]; !ok {
			d.Added = append(d.Added, c.id)
			changed[c.id] = true
		}
	}
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	sort.Strings(d.Replaced)
	sort.Strings(d.Unchanged)

	// Edges survive only when declared in both revisions with both
	// endpoints unchanged; everything else is dropped and remade.
	oldEdges := make(map[Edge]bool, len(oldConns))
	for _, e := range oldConns {
		oldEdges[e] = true
	}
	keep := make(map[Edge]bool)
	for _, e := range newConns {
		if oldEdges[e] && !changed[e.From] && !changed[e.To] {
			keep[e] = true
		}
	}
	for _, e := range oldConns {
		if !keep[e] {
			d.DropEdges = append(d.DropEdges, e)
		}
	}
	for _, e := range newConns {
		if !keep[e] {
			d.MakeEdges = append(d.MakeEdges, e)
		}
	}

	// Features: those on changed components ride with the node (die on
	// Remove, rebuilt on Add); on unchanged components the keyed sets
	// are diffed and edited in place.
	oldFeatKeys := make(map[string]bool)
	for _, f := range oldFeats {
		if !changed[f.component] {
			oldFeatKeys[f.component+"\x00"+featureKey(f)] = true
		}
	}
	newFeatKeys := make(map[string]bool)
	for _, f := range newFeats {
		if changed[f.component] {
			if _, ok := newIdx[f.component]; ok {
				p.attach = append(p.attach, f) // rebuilt node gets all its features
			}
			continue
		}
		k := f.component + "\x00" + featureKey(f)
		newFeatKeys[k] = true
		if !oldFeatKeys[k] {
			ref := FeatureRef{Component: f.component, Name: f.factory().FeatureName()}
			d.AttachFeatures = append(d.AttachFeatures, ref)
			p.attach = append(p.attach, f)
		}
	}
	for _, f := range oldFeats {
		if changed[f.component] {
			continue
		}
		if k := f.component + "\x00" + featureKey(f); !newFeatKeys[k] {
			ref := FeatureRef{Component: f.component, Name: f.factory().FeatureName()}
			d.DetachFeatures = append(d.DetachFeatures, ref)
			p.detach = append(p.detach, ref)
		}
	}

	// Teardown removed+replaced in old declaration order; build
	// added+replaced in new declaration order.
	for _, c := range oldComps {
		if _, ok := newIdx[c.id]; !ok || changed[c.id] {
			p.teardown = append(p.teardown, c.id)
		}
	}
	for _, c := range newComps {
		if changed[c.id] {
			p.build = append(p.build, c)
		}
	}
	return p
}

// Empty reports a no-op plan (identical revisions).
func (p *MigrationPlan) Empty() bool { return p.Diff.Empty() }

// Apply migrates a quiescent live graph from the plan's old revision to
// its new one, in place:
//
//  1. dropped edges are disconnected,
//  2. features removed from unchanged components are detached,
//  3. removed and replaced components are torn down,
//  4. added and replaced components are built from the new revision's
//     factories (placeholder slots resolved through opts),
//  5. the new revision's features are attached (before wiring, since
//     connection validation may need feature capabilities),
//  6. new edges are connected.
//
// Unchanged nodes are never touched, so their component instances —
// and therefore their running state — carry across bit-exact. The
// caller must hold the graph quiescent (the runtime applies it inside
// Graph.Pause, the seam Adapt uses).
//
// Apply is transactional at the graph level: before editing it snapshots
// component state via SnapshotState, and if any step fails it rebuilds
// the old revision in place and restores the snapshot, so a failed
// migration leaves the session on the old revision with its state
// intact. The returned error is the step failure (joined with a
// rollback error if the rebuild itself failed).
func (p *MigrationPlan) Apply(g *Graph, opts ...InstantiateOption) error {
	if p.Empty() {
		return nil
	}
	var cfg instantiateConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	_, _, _, newIndex := p.to.freeze()
	for id := range cfg.overrides {
		if _, ok := newIndex[id]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownOverride, id)
		}
	}
	snap, err := g.SnapshotState()
	if err != nil {
		return fmt.Errorf("core: migration pre-snapshot: %w", err)
	}
	if err := p.apply(g, &cfg); err != nil {
		if rerr := rebuildRevision(g, p.from, snap, &cfg); rerr != nil {
			return errors.Join(err, fmt.Errorf("core: migration rollback failed: %w", rerr))
		}
		return err
	}
	return nil
}

// apply drives the edit sequence; on error the caller rolls back.
func (p *MigrationPlan) apply(g *Graph, cfg *instantiateConfig) error {
	for _, e := range p.Diff.DropEdges {
		if err := g.Disconnect(e.From, e.To, e.Port); err != nil {
			return fmt.Errorf("core: migrate disconnect %s -> %s:%d: %w", e.From, e.To, e.Port, err)
		}
	}
	for _, ref := range p.detach {
		node, ok := g.Node(ref.Component)
		if !ok {
			return fmt.Errorf("core: migrate detach %q from %q: %w", ref.Name, ref.Component, ErrNotFound)
		}
		if err := node.DetachFeature(ref.Name); err != nil {
			return fmt.Errorf("core: migrate detach %q from %q: %w", ref.Name, ref.Component, err)
		}
	}
	for _, id := range p.teardown {
		if err := g.Remove(id); err != nil {
			return fmt.Errorf("core: migrate remove %q: %w", id, err)
		}
	}
	for _, c := range p.build {
		factory := cfg.factoryFor(c)
		if factory == nil {
			return fmt.Errorf("%w: %q", ErrOverrideRequired, c.id)
		}
		comp := factory(c.id)
		if comp == nil {
			return fmt.Errorf("%w: factory for %q returned nil", ErrInvalidSpec, c.id)
		}
		if comp.ID() != c.id {
			return fmt.Errorf("%w: factory for %q returned component %q", ErrInvalidSpec, c.id, comp.ID())
		}
		if _, err := g.Add(comp); err != nil {
			return fmt.Errorf("core: migrate add %q: %w", c.id, err)
		}
	}
	for _, f := range p.attach {
		node, ok := g.Node(f.component)
		if !ok {
			return fmt.Errorf("core: migrate attach feature to %q: %w", f.component, ErrNotFound)
		}
		if err := node.AttachFeature(f.factory()); err != nil {
			return fmt.Errorf("core: migrate attach feature to %q: %w", f.component, err)
		}
	}
	for _, e := range p.Diff.MakeEdges {
		if err := g.Connect(e.From, e.To, e.Port); err != nil {
			return fmt.Errorf("core: migrate connect %s -> %s:%d: %w", e.From, e.To, e.Port, err)
		}
	}
	return nil
}

// rebuildRevision rebuilds bp from scratch inside g — every node is
// removed, the revision re-instantiated through the same override set,
// and the pre-migration state snapshot restored. This is the migration
// failure path: slower than undoing individual edits but correct for
// any partial failure point. Overrides are resolved leniently (required
// and optional alike may name slots bp lacks), since the caller's
// override set targets the revision that failed to build.
func rebuildRevision(g *Graph, bp *Blueprint, snap GraphState, cfg *instantiateConfig) error {
	for _, n := range g.Nodes() {
		if err := g.Remove(n.ID()); err != nil {
			return err
		}
	}
	comps, conns, feats, _ := bp.freeze()
	lenient := instantiateConfig{optional: make(map[string]ComponentFactory, len(cfg.overrides)+len(cfg.optional))}
	for id, f := range cfg.optional {
		lenient.optional[id] = f
	}
	for id, f := range cfg.overrides {
		lenient.optional[id] = f
	}
	if err := buildInto(g, comps, conns, feats, &lenient); err != nil {
		return err
	}
	return g.RestoreState(snap)
}
