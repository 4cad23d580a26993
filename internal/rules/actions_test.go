package rules

import (
	"sync"
	"testing"

	"perpos/internal/core"
)

const testKind core.Kind = "test.kind"

// passthrough builds a same-kind transform.
func passthrough(id string) *core.FuncComponent {
	return core.NewTransform(id, testKind, testKind, func(s core.Sample) (core.Sample, bool) { return s, true })
}

// actionGraph wires src -> mid -> app with a uniform kind so inserts
// and swaps stay type-correct.
func actionGraph(t *testing.T) *core.Graph {
	t.Helper()
	g := core.New()
	src := &core.SliceSource{CompID: "src", Out: core.OutputSpec{Kind: testKind}}
	for _, c := range []core.Component{src, passthrough("mid"), core.NewSink("app", []core.Kind{testKind})} {
		if _, err := g.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []core.Edge{{From: "src", To: "mid", Port: 0}, {From: "mid", To: "app", Port: 0}} {
		if err := g.Connect(e.From, e.To, e.Port); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func edgeSet(g *core.Graph) map[core.Edge]bool {
	out := map[core.Edge]bool{}
	for _, e := range g.Edges() {
		out[e] = true
	}
	return out
}

func TestInsertActionRoundTrip(t *testing.T) {
	g := actionGraph(t)
	a := &InsertAction{
		ID:    "flt",
		Build: func(id string) core.Component { return passthrough(id) },
		From:  "mid",
		To:    "app",
		Port:  0,
	}
	if got := len(a.Edges()); got != 3 {
		t.Fatalf("footprint edges = %d, want 3 (spliced edge + both halves)", got)
	}
	if err := a.Apply(g); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	es := edgeSet(g)
	if !es[core.Edge{From: "mid", To: "flt", Port: 0}] || !es[core.Edge{From: "flt", To: "app", Port: 0}] {
		t.Fatalf("splice missing: %v", g.Edges())
	}
	if es[core.Edge{From: "mid", To: "app", Port: 0}] {
		t.Fatal("original edge survived the splice")
	}
	if err := a.Revert(g); err != nil {
		t.Fatalf("Revert: %v", err)
	}
	if _, ok := g.Node("flt"); ok {
		t.Fatal("inserted node survived the revert")
	}
	if !edgeSet(g)[core.Edge{From: "mid", To: "app", Port: 0}] {
		t.Fatal("original edge not restored")
	}
	// Second engagement must work (fresh component instance).
	if err := a.Apply(g); err != nil {
		t.Fatalf("second Apply: %v", err)
	}
	if err := a.Revert(g); err != nil {
		t.Fatalf("second Revert: %v", err)
	}
}

func TestInsertActionFailedApplyLeavesGraphIntact(t *testing.T) {
	g := actionGraph(t)
	a := &InsertAction{
		ID: "flt",
		// Wrong kind: the splice cannot connect, InsertBetween unwinds.
		Build: func(id string) core.Component {
			return core.NewTransform(id, "other.kind", "other.kind", func(s core.Sample) (core.Sample, bool) { return s, true })
		},
		From: "mid",
		To:   "app",
	}
	if err := a.Apply(g); err == nil {
		t.Fatal("Apply succeeded with a type-incompatible component")
	}
	if !edgeSet(g)[core.Edge{From: "mid", To: "app", Port: 0}] {
		t.Fatal("failed Apply did not leave the original edge intact")
	}
	if _, ok := g.Node("flt"); ok {
		t.Fatal("failed Apply left the component behind")
	}
}

func TestInsertActionRevertToleratesMissingNode(t *testing.T) {
	g := actionGraph(t)
	a := &InsertAction{
		ID:    "flt",
		Build: func(id string) core.Component { return passthrough(id) },
		From:  "mid",
		To:    "app",
	}
	if err := a.Apply(g); err != nil {
		t.Fatal(err)
	}
	// Someone else already removed the node and reconnected — a retried
	// revert must converge, not error.
	if err := g.Remove("flt"); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("mid", "app", 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Revert(g); err == nil {
		// Connect on an existing edge may error; either way the graph
		// must end with the original edge present exactly once.
		if !edgeSet(g)[core.Edge{From: "mid", To: "app", Port: 0}] {
			t.Fatal("edge lost")
		}
	}
}

func TestSwapActionRoundTrip(t *testing.T) {
	g := actionGraph(t)
	// Add an alternate producer for the swap target.
	if _, err := g.Add(passthrough("alt")); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("src", "alt", 0); err != nil {
		t.Fatal(err)
	}
	a := &SwapAction{
		Break: core.Edge{From: "mid", To: "app", Port: 0},
		Make:  core.Edge{From: "alt", To: "app", Port: 0},
	}
	if got := len(a.Edges()); got != 2 {
		t.Fatalf("footprint edges = %d, want 2", got)
	}
	if err := a.Apply(g); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	es := edgeSet(g)
	if es[a.Break] || !es[a.Make] {
		t.Fatalf("swap not applied: %v", g.Edges())
	}
	if err := a.Revert(g); err != nil {
		t.Fatalf("Revert: %v", err)
	}
	es = edgeSet(g)
	if !es[a.Break] || es[a.Make] {
		t.Fatalf("swap not reverted: %v", g.Edges())
	}
	// Revert is idempotent: running it again on the restored graph is a
	// no-op, not an error.
	if err := a.Revert(g); err != nil {
		t.Fatalf("idempotent Revert: %v", err)
	}
}

func TestSwapActionFailedMakeRestoresBreak(t *testing.T) {
	g := actionGraph(t)
	a := &SwapAction{
		Break: core.Edge{From: "mid", To: "app", Port: 0},
		Make:  core.Edge{From: "ghost", To: "app", Port: 0},
	}
	if err := a.Apply(g); err == nil {
		t.Fatal("Apply succeeded with a missing make source")
	}
	if !edgeSet(g)[a.Break] {
		t.Fatal("failed Apply did not restore the broken edge")
	}
}

// namedFeature is a no-op feature with a configurable name.
type namedFeature struct{ name string }

func (f namedFeature) FeatureName() string { return f.name }

func TestFeatureActionRoundTrip(t *testing.T) {
	g := actionGraph(t)
	a := &FeatureAction{
		Target: "mid",
		Name:   "cfg-key", // deliberately differs from FeatureName
		Build:  func() core.Feature { return namedFeature{name: "real.name"} },
	}
	if a.Edges() != nil {
		t.Fatal("feature action must have no structural footprint")
	}
	if err := a.Apply(g); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	n, _ := g.Node("mid")
	if _, ok := n.Feature("real.name"); !ok {
		t.Fatal("feature not attached under its own name")
	}
	// Revert must detach by the attached instance's FeatureName, not
	// the config-side key.
	if err := a.Revert(g); err != nil {
		t.Fatalf("Revert: %v", err)
	}
	if _, ok := n.Feature("real.name"); ok {
		t.Fatal("feature still attached after revert")
	}
	// Idempotent revert.
	if err := a.Revert(g); err != nil {
		t.Fatalf("idempotent Revert: %v", err)
	}
}

// TestFeatureActionSharedAcrossGraphs: every session of a config
// shares one action value, so two graphs applying and reverting it at
// once must not race on it (run under -race).
func TestFeatureActionSharedAcrossGraphs(t *testing.T) {
	a := &FeatureAction{
		Target: "mid",
		Name:   "cfg-key",
		Build:  func() core.Feature { return namedFeature{name: "real.name"} },
	}
	var wg sync.WaitGroup
	for _, g := range []*core.Graph{actionGraph(t), actionGraph(t)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := a.Apply(g); err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
				if err := a.Revert(g); err != nil {
					t.Errorf("Revert: %v", err)
					return
				}
			}
			if n, _ := g.Node("mid"); len(n.Features()) != 0 {
				t.Errorf("features left attached: %v", n.Features())
			}
		}()
	}
	wg.Wait()
}

func TestFeatureActionMissingTarget(t *testing.T) {
	g := actionGraph(t)
	a := &FeatureAction{
		Target: "ghost",
		Name:   "f",
		Build:  func() core.Feature { return namedFeature{name: "f"} },
	}
	if err := a.Apply(g); err == nil {
		t.Fatal("Apply succeeded on a missing target")
	}
	if err := a.Revert(g); err == nil {
		t.Fatal("Revert succeeded on a missing target")
	}
}
