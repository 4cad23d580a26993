package core

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// markFeature is a minimal named feature for diff tests.
type markFeature struct{ name string }

func (m markFeature) FeatureName() string { return m.name }

// numSource returns a slice-source factory over the given values.
func numSourceFactory(values ...int) ComponentFactory {
	samples := make([]Sample, len(values))
	for i, v := range values {
		samples[i] = NewSample(kindNum, v, time.Unix(int64(i), 0))
	}
	return func(id string) Component {
		return &SliceSource{CompID: id, Out: OutputSpec{Kind: kindNum}, Samples: samples}
	}
}

func sinkFactory(id string) Component { return NewSink(id, []Kind{kindNum, "counted", KindAny}) }

func TestBlueprintSetRevisions(t *testing.T) {
	set := NewBlueprintSet("demo")
	if set.Latest() != 0 {
		t.Fatalf("Latest on empty set = %d, want 0", set.Latest())
	}
	if _, err := set.Revision(1); !errors.Is(err, ErrUnknownRevision) {
		t.Fatalf("Revision(1) on empty set = %v, want ErrUnknownRevision", err)
	}
	bp := numBlueprint(t, 1, 2)
	rev, err := set.Add(bp)
	if err != nil || rev != 1 {
		t.Fatalf("Add = (%d, %v), want (1, nil)", rev, err)
	}
	// Add freezes: further structural edits must fail.
	if err := bp.AddComponent("late", nil); !errors.Is(err, ErrBlueprintFrozen) {
		t.Fatalf("AddComponent after set.Add = %v, want ErrBlueprintFrozen", err)
	}
	if got, err := set.Revision(1); err != nil || got != bp {
		t.Fatalf("Revision(1) = (%v, %v), want the added blueprint", got, err)
	}
	if set.Name() != "demo" {
		t.Fatalf("Name = %q", set.Name())
	}
	if _, err := set.Plan(1, 2); !errors.Is(err, ErrUnknownRevision) {
		t.Fatalf("Plan(1,2) = %v, want ErrUnknownRevision", err)
	}
	if _, err := set.Add(nil); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("Add(nil) = %v, want ErrInvalidSpec", err)
	}
}

// TestDiffNoOp: the same blueprint added twice diffs empty and the
// migration plan is a no-op that touches nothing.
func TestDiffNoOp(t *testing.T) {
	set := NewBlueprintSet("noop")
	bp := numBlueprint(t, 1, 2, 3)
	if _, err := set.Add(bp); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Add(bp); err != nil {
		t.Fatal(err)
	}
	d, err := set.Diff(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("diff of identical revisions not empty: %+v", d)
	}
	p, err := set.Plan(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Fatal("plan of identical revisions not empty")
	}
	g, err := bp.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := g.Node("double")
	if err := set.Migrate(g, 1, 2); err != nil {
		t.Fatalf("no-op Migrate: %v", err)
	}
	after, _ := g.Node("double")
	if before != after {
		t.Fatal("no-op migration replaced a node")
	}
}

// TestDiffPlaceholderSlotChanges: binding a placeholder to a concrete
// factory (or vice versa) is a replacement; placeholder-to-placeholder
// is unchanged regardless of per-instance bindings.
func TestDiffPlaceholderSlotChanges(t *testing.T) {
	srcF := numSourceFactory(1)
	mk := func(srcFactory ComponentFactory) *Blueprint {
		bp := NewBlueprint()
		if err := bp.AddComponent("src", srcFactory); err != nil {
			t.Fatal(err)
		}
		if err := bp.AddComponent("sink", sinkFactory); err != nil {
			t.Fatal(err)
		}
		if err := bp.Connect("src", "sink", 0); err != nil {
			t.Fatal(err)
		}
		return bp
	}

	d := diffBlueprints(mk(nil), mk(srcF))
	if len(d.Replaced) != 1 || d.Replaced[0] != "src" {
		t.Fatalf("placeholder->concrete Replaced = %v, want [src]", d.Replaced)
	}
	// The edge touching the replaced slot is dropped and remade.
	if len(d.DropEdges) != 1 || len(d.MakeEdges) != 1 {
		t.Fatalf("edges = drop %v make %v, want one each", d.DropEdges, d.MakeEdges)
	}

	d = diffBlueprints(mk(srcF), mk(nil))
	if len(d.Replaced) != 1 || d.Replaced[0] != "src" {
		t.Fatalf("concrete->placeholder Replaced = %v, want [src]", d.Replaced)
	}

	d = diffBlueprints(mk(nil), mk(nil))
	if !d.Empty() {
		t.Fatalf("placeholder->placeholder diff not empty: %+v", d)
	}
}

// TestDiffFeatureOnlyChange: attaching a feature in the new revision is
// a pure feature edit — no components or edges move, and migration
// keeps every live node instance.
func TestDiffFeatureOnlyChange(t *testing.T) {
	set := NewBlueprintSet("feat")
	a := numBlueprint(t, 1, 2)
	b := numBlueprint(t, 1, 2)
	// Identical structure needs shared identity: the two blueprints are
	// built from distinct closures, so tag the slots.
	for _, bp := range []*Blueprint{a, b} {
		for _, id := range []string{"src", "double", "sink"} {
			if err := bp.TagComponent(id, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.AttachTaggedFeature("double", "mark", func() Feature { return markFeature{name: "mark"} }); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Add(a); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Add(b); err != nil {
		t.Fatal(err)
	}

	d, err := set.Diff(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("feature-only diff reported empty")
	}
	if len(d.Added)+len(d.Removed)+len(d.Replaced) != 0 {
		t.Fatalf("feature-only diff has component edits: %+v", d)
	}
	if len(d.DropEdges)+len(d.MakeEdges) != 0 {
		t.Fatalf("feature-only diff has edge edits: %+v", d)
	}
	want := FeatureRef{Component: "double", Name: "mark"}
	if len(d.AttachFeatures) != 1 || d.AttachFeatures[0] != want {
		t.Fatalf("AttachFeatures = %v, want [%v]", d.AttachFeatures, want)
	}

	g, err := a.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := g.Node("double")
	if err := set.Migrate(g, 1, 2); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	after, _ := g.Node("double")
	if before != after {
		t.Fatal("feature-only migration replaced the node")
	}
	if !after.HasCapability("mark") {
		t.Fatal("migrated node missing attached feature capability")
	}

	// And back: the reverse plan detaches it again.
	if err := set.Migrate(g, 2, 1); err != nil {
		t.Fatalf("reverse Migrate: %v", err)
	}
	if after.HasCapability("mark") {
		t.Fatal("reverse migration left the feature attached")
	}
}

// TestDiffTaggedIdentity: distinct factory closures with the same tag
// are the same component; different tags force replacement even for the
// same closure.
func TestDiffTaggedIdentity(t *testing.T) {
	mk := func(tag string) *Blueprint {
		bp := NewBlueprint()
		if err := bp.AddComponent("src", numSourceFactory(1)); err != nil {
			t.Fatal(err)
		}
		if err := bp.AddComponent("sink", sinkFactory); err != nil {
			t.Fatal(err)
		}
		if tag != "" {
			if err := bp.TagComponent("src", tag); err != nil {
				t.Fatal(err)
			}
		}
		if err := bp.Connect("src", "sink", 0); err != nil {
			t.Fatal(err)
		}
		return bp
	}
	if d := diffBlueprints(mk("v"), mk("v")); len(d.Replaced) != 0 || len(d.Unchanged) != 2 {
		t.Fatalf("same-tag diff = %+v, want unchanged", d)
	}
	if d := diffBlueprints(mk("v"), mk("w")); len(d.Replaced) != 1 || d.Replaced[0] != "src" {
		t.Fatalf("different-tag diff Replaced = %v, want [src]", d.Replaced)
	}
	// Untagged distinct closures (numSourceFactory returns a fresh
	// closure per call, but from one literal — same code identity).
	if d := diffBlueprints(mk(""), mk("")); len(d.Replaced) != 0 {
		t.Fatalf("same-literal untagged diff Replaced = %v, want none", d.Replaced)
	}
	if err := mk("").TagComponent("nope", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("TagComponent unknown = %v, want ErrNotFound", err)
	}
}

// migrationFixture builds a two-revision set:
//
//	rev 1: src -> counter -> sink
//	rev 2: src -> counter -> double -> sink
//
// where counter is a stateful component shared (tagged) across both, so
// a migration must carry its count.
func migrationFixture(t *testing.T) *BlueprintSet {
	t.Helper()
	counterF := func(id string) Component { return &counterComponent{id: id} }
	srcF := numSourceFactory(1, 2, 3, 4, 5, 6)
	doubleF := func(id string) Component {
		return NewTransform(id, "counted", "counted", func(in Sample) (Sample, bool) {
			in.Payload = in.Payload.(int) * 2
			return in, true
		})
	}
	sinkF := func(id string) Component { return NewSink(id, []Kind{"counted"}) }

	mk := func(withDouble bool) *Blueprint {
		bp := NewBlueprint()
		if err := bp.AddComponent("src", srcF); err != nil {
			t.Fatal(err)
		}
		if err := bp.TagComponent("src", "src"); err != nil {
			t.Fatal(err)
		}
		if err := bp.AddComponent("counter", counterF); err != nil {
			t.Fatal(err)
		}
		if err := bp.TagComponent("counter", "counter"); err != nil {
			t.Fatal(err)
		}
		if err := bp.AddComponent("sink", sinkF); err != nil {
			t.Fatal(err)
		}
		if err := bp.TagComponent("sink", "sink"); err != nil {
			t.Fatal(err)
		}
		if err := bp.Connect("src", "counter", 0); err != nil {
			t.Fatal(err)
		}
		if withDouble {
			if err := bp.AddComponent("double", doubleF); err != nil {
				t.Fatal(err)
			}
			if err := bp.Connect("counter", "double", 0); err != nil {
				t.Fatal(err)
			}
			if err := bp.Connect("double", "sink", 0); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := bp.Connect("counter", "sink", 0); err != nil {
				t.Fatal(err)
			}
		}
		return bp
	}

	set := NewBlueprintSet("mig")
	if _, err := set.Add(mk(false)); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Add(mk(true)); err != nil {
		t.Fatal(err)
	}
	return set
}

// TestMigrateCarriesState runs revision 1 halfway, migrates the live
// graph to revision 2 and back, asserting the stateful component's
// serialized state is bit-exact across every migration and that the
// pipeline keeps processing.
func TestMigrateCarriesState(t *testing.T) {
	set := migrationFixture(t)
	rev1, err := set.Revision(1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := rev1.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := g.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	counterNode, _ := g.Node("counter")
	stateBefore, err := counterNode.Component().(*counterComponent).MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	if err := set.Migrate(g, 1, 2); err != nil {
		t.Fatalf("Migrate 1->2: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("migrated graph invalid: %v", err)
	}
	afterNode, _ := g.Node("counter")
	if afterNode != counterNode {
		t.Fatal("unchanged stateful node was re-instantiated")
	}
	stateAfter, err := afterNode.Component().(*counterComponent).MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if string(stateBefore) != string(stateAfter) {
		t.Fatalf("state not carried bit-exact: %s != %s", stateBefore, stateAfter)
	}

	// The migrated pipeline processes through the new branch.
	if _, err := g.StepAll(); err != nil {
		t.Fatal(err)
	}
	sinkNode, _ := g.Node("sink")
	recv := sinkNode.Component().(*Sink).Received()
	if len(recv) == 0 {
		t.Fatal("migrated pipeline delivered nothing")
	}
	if got := recv[len(recv)-1].Payload.(int); got != 8 { // counter=4, doubled
		t.Fatalf("post-migration sink payload = %d, want 8", got)
	}

	// Back to revision 1: the doubler goes away, counter state persists.
	if err := set.Migrate(g, 2, 1); err != nil {
		t.Fatalf("Migrate 2->1: %v", err)
	}
	if _, ok := g.Node("double"); ok {
		t.Fatal("reverse migration left the added component")
	}
	if _, err := g.StepAll(); err != nil {
		t.Fatal(err)
	}
	recv = sinkNode.Component().(*Sink).Received()
	if got := recv[len(recv)-1].Payload.(int); got != 5 { // counter=5, undoubled
		t.Fatalf("post-reverse sink payload = %d, want 5", got)
	}
}

// TestMigrateFailureRollsBack: a migration whose build step fails must
// leave the graph on the old revision with its state restored.
func TestMigrateFailureRollsBack(t *testing.T) {
	counterF := func(id string) Component { return &counterComponent{id: id} }
	mk := func(extra ComponentFactory) *Blueprint {
		bp := NewBlueprint()
		if err := bp.AddComponent("src", numSourceFactory(1, 2, 3, 4)); err != nil {
			t.Fatal(err)
		}
		if err := bp.TagComponent("src", "src"); err != nil {
			t.Fatal(err)
		}
		if err := bp.AddComponent("counter", counterF); err != nil {
			t.Fatal(err)
		}
		if err := bp.TagComponent("counter", "counter"); err != nil {
			t.Fatal(err)
		}
		if err := bp.AddComponent("sink", func(id string) Component { return NewSink(id, []Kind{"counted"}) }); err != nil {
			t.Fatal(err)
		}
		if err := bp.TagComponent("sink", "sink"); err != nil {
			t.Fatal(err)
		}
		if err := bp.Connect("src", "counter", 0); err != nil {
			t.Fatal(err)
		}
		if extra != nil {
			if err := bp.AddComponent("double", extra); err != nil {
				t.Fatal(err)
			}
			if err := bp.Connect("counter", "double", 0); err != nil {
				t.Fatal(err)
			}
			if err := bp.Connect("double", "sink", 0); err != nil {
				t.Fatal(err)
			}
		} else if err := bp.Connect("counter", "sink", 0); err != nil {
			t.Fatal(err)
		}
		return bp
	}

	set := NewBlueprintSet("rollback")
	if _, err := set.Add(mk(nil)); err != nil {
		t.Fatal(err)
	}
	// The new revision's added component factory returns nil — the
	// build step fails after teardown already ran.
	if _, err := set.Add(mk(func(id string) Component { return nil })); err != nil {
		t.Fatal(err)
	}

	rev1, _ := set.Revision(1)
	g, err := rev1.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := g.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	err = set.Migrate(g, 1, 2)
	if !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("Migrate with nil-returning factory = %v, want ErrInvalidSpec", err)
	}
	// Rolled back: old structure, state intact, still runnable.
	if _, ok := g.Node("double"); ok {
		t.Fatal("failed migration left the new component behind")
	}
	n, ok := g.Node("counter")
	if !ok {
		t.Fatal("rollback lost the counter node")
	}
	if got := n.Component().(*counterComponent).Count; got != 2 {
		t.Fatalf("rolled-back counter state = %d, want 2", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("rolled-back graph invalid: %v", err)
	}
	if _, err := g.StepAll(); err != nil {
		t.Fatal(err)
	}
	if got := n.Component().(*counterComponent).Count; got != 3 {
		t.Fatalf("rolled-back pipeline did not keep processing: count = %d, want 3", got)
	}
}

// TestOptionalOverride: unknown slots are ignored, known slots bind,
// and a required override for the same slot wins.
func TestOptionalOverride(t *testing.T) {
	bp := NewBlueprint()
	if err := bp.AddComponent("src", nil); err != nil {
		t.Fatal(err)
	}
	if err := bp.AddComponent("sink", sinkFactory); err != nil {
		t.Fatal(err)
	}
	if err := bp.Connect("src", "sink", 0); err != nil {
		t.Fatal(err)
	}

	g, err := bp.Instantiate(
		WithOptionalOverride("src", numSourceFactory(7)),
		WithOptionalOverride("wifi", numSourceFactory(9)), // no such slot: ignored
	)
	if err != nil {
		t.Fatalf("Instantiate with optional overrides: %v", err)
	}
	if _, ok := g.Node("wifi"); ok {
		t.Fatal("optional override materialized an undeclared slot")
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	sinkNode, _ := g.Node("sink")
	recv := sinkNode.Component().(*Sink).Received()
	if len(recv) != 1 || recv[0].Payload.(int) != 7 {
		t.Fatalf("optional override not applied: got %v", recv)
	}

	// Required wins over optional for the same slot.
	g2, err := bp.Instantiate(
		WithOptionalOverride("src", numSourceFactory(7)),
		WithComponentOverride("src", numSourceFactory(8)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Run(0); err != nil {
		t.Fatal(err)
	}
	sinkNode2, _ := g2.Node("sink")
	recv2 := sinkNode2.Component().(*Sink).Received()
	if len(recv2) != 1 || recv2[0].Payload.(int) != 8 {
		t.Fatalf("required override did not win: got %v", recv2)
	}

	// A required override for an unknown slot still fails loudly, both
	// at instantiation and migration time.
	if _, err := bp.Instantiate(WithComponentOverride("nope", numSourceFactory(1))); !errors.Is(err, ErrUnknownOverride) {
		t.Fatalf("unknown required override = %v, want ErrUnknownOverride", err)
	}
}

// TestDiffAddRemove covers the plain added/removed partitions and edge
// bookkeeping across a component swap.
func TestDiffAddRemove(t *testing.T) {
	set := migrationFixture(t)
	d, err := set.Diff(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(d.Added) != "[double]" {
		t.Fatalf("Added = %v, want [double]", d.Added)
	}
	if len(d.Removed) != 0 || len(d.Replaced) != 0 {
		t.Fatalf("Removed/Replaced = %v/%v, want none", d.Removed, d.Replaced)
	}
	if fmt.Sprint(d.Unchanged) != "[counter sink src]" {
		t.Fatalf("Unchanged = %v", d.Unchanged)
	}
	wantDrop := Edge{From: "counter", To: "sink", Port: 0}
	if len(d.DropEdges) != 1 || d.DropEdges[0] != wantDrop {
		t.Fatalf("DropEdges = %v, want [%v]", d.DropEdges, wantDrop)
	}
	if len(d.MakeEdges) != 2 {
		t.Fatalf("MakeEdges = %v, want 2 edges", d.MakeEdges)
	}
	// Reverse diff mirrors it.
	rd, err := set.Diff(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rd.Removed) != "[double]" || len(rd.Added) != 0 {
		t.Fatalf("reverse diff = %+v", rd)
	}
}
