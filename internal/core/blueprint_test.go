package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

const kindNum Kind = "test.num"

// numBlueprint declares source -> double -> sink over the given values.
func numBlueprint(t *testing.T, values ...int) *Blueprint {
	t.Helper()
	bp := NewBlueprint()
	samples := make([]Sample, len(values))
	for i, v := range values {
		samples[i] = NewSample(kindNum, v, time.Unix(int64(i), 0))
	}
	if err := bp.AddComponent("src", func(id string) Component {
		return &SliceSource{CompID: id, Out: OutputSpec{Kind: kindNum}, Samples: samples}
	}); err != nil {
		t.Fatal(err)
	}
	if err := bp.AddComponent("double", func(id string) Component {
		return NewTransform(id, kindNum, kindNum, func(in Sample) (Sample, bool) {
			in.Payload = in.Payload.(int) * 2
			return in, true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := bp.AddComponent("sink", func(id string) Component {
		return NewSink(id, []Kind{kindNum})
	}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []Edge{{From: "src", To: "double", Port: 0}, {From: "double", To: "sink", Port: 0}} {
		if err := bp.Connect(e.From, e.To, e.Port); err != nil {
			t.Fatal(err)
		}
	}
	return bp
}

func sinkPayloads(t *testing.T, g *Graph) []int {
	t.Helper()
	n, ok := g.Node("sink")
	if !ok {
		t.Fatal("no sink node")
	}
	var out []int
	for _, s := range n.Component().(*Sink).Received() {
		out = append(out, s.Payload.(int))
	}
	return out
}

func TestBlueprintInstantiate(t *testing.T) {
	bp := numBlueprint(t, 1, 2, 3)
	g, err := bp.Instantiate()
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	got := sinkPayloads(t, g)
	want := []int{2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("sink received %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sink received %v, want %v", got, want)
		}
	}
}

func TestBlueprintFreezesOnInstantiate(t *testing.T) {
	bp := numBlueprint(t, 1)
	if _, err := bp.Instantiate(); err != nil {
		t.Fatal(err)
	}
	if err := bp.AddComponent("late", nil); !errors.Is(err, ErrBlueprintFrozen) {
		t.Fatalf("AddComponent after freeze = %v, want ErrBlueprintFrozen", err)
	}
	if err := bp.Connect("src", "sink", 0); !errors.Is(err, ErrBlueprintFrozen) {
		t.Fatalf("Connect after freeze = %v, want ErrBlueprintFrozen", err)
	}
	if err := bp.AttachTaggedFeature("double", "", func() Feature { return nil }); !errors.Is(err, ErrBlueprintFrozen) {
		t.Fatalf("AttachTaggedFeature after freeze = %v, want ErrBlueprintFrozen", err)
	}
}

func TestBlueprintPlaceholderRequiresOverride(t *testing.T) {
	bp := NewBlueprint()
	if err := bp.AddComponent("src", nil); err != nil {
		t.Fatal(err)
	}
	if err := bp.AddComponent("sink", func(id string) Component {
		return NewSink(id, []Kind{kindNum})
	}); err != nil {
		t.Fatal(err)
	}
	if err := bp.Connect("src", "sink", 0); err != nil {
		t.Fatal(err)
	}
	if got := bp.Placeholders(); len(got) != 1 || got[0] != "src" {
		t.Fatalf("Placeholders = %v, want [src]", got)
	}
	if _, err := bp.Instantiate(); !errors.Is(err, ErrOverrideRequired) {
		t.Fatalf("Instantiate without override = %v, want ErrOverrideRequired", err)
	}
	g, err := bp.Instantiate(WithComponentOverride("src", func(id string) Component {
		return &SliceSource{CompID: id, Out: OutputSpec{Kind: kindNum},
			Samples: []Sample{NewSample(kindNum, 7, time.Unix(0, 0))}}
	}))
	if err != nil {
		t.Fatalf("Instantiate with override: %v", err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := sinkPayloads(t, g); len(got) != 1 || got[0] != 7 {
		t.Fatalf("sink received %v, want [7]", got)
	}
}

func TestBlueprintUnknownOverride(t *testing.T) {
	bp := numBlueprint(t, 1)
	_, err := bp.Instantiate(WithComponentOverride("nope", func(id string) Component { return nil }))
	if !errors.Is(err, ErrUnknownOverride) {
		t.Fatalf("Instantiate = %v, want ErrUnknownOverride", err)
	}
}

// TestBlueprintInstancesIndependent is the isolation guarantee of the
// blueprint/instance split: adapting one instance — inserting a
// component, attaching a feature, deleting a component — provably does
// not affect a sibling instance from the same blueprint.
func TestBlueprintInstancesIndependent(t *testing.T) {
	bp := numBlueprint(t, 1, 2, 3, 4)

	a, err := bp.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	c, err := bp.Instantiate()
	if err != nil {
		t.Fatal(err)
	}

	// Adapt instance a: insert a filter dropping odd inputs between src
	// and double (§3.1-style insertion)...
	filter := NewFilter("even-only", kindNum, func(in Sample) bool {
		return in.Payload.(int)%2 == 0
	})
	if err := a.InsertBetween(filter, "src", "double", 0, 0); err != nil {
		t.Fatalf("InsertBetween on a: %v", err)
	}
	// ...and attach a produce-hook feature on a's double that adds 1.
	nodeA, _ := a.Node("double")
	if err := nodeA.AttachFeature(&addOneFeature{}); err != nil {
		t.Fatal(err)
	}

	if _, err := a.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}

	gotA := sinkPayloads(t, a)
	wantA := []int{5, 9} // evens 2,4 doubled then +1
	if fmt.Sprint(gotA) != fmt.Sprint(wantA) {
		t.Fatalf("adapted instance delivered %v, want %v", gotA, wantA)
	}
	gotC := sinkPayloads(t, c)
	wantC := []int{2, 4, 6, 8} // untouched blueprint behaviour
	if fmt.Sprint(gotC) != fmt.Sprint(wantC) {
		t.Fatalf("sibling instance delivered %v, want %v (leaked adaptation)", gotC, wantC)
	}

	// The sibling's structure is untouched too: no filter, no feature.
	if _, ok := c.Node("even-only"); ok {
		t.Fatal("inserted component leaked into sibling instance")
	}
	nodeC, _ := c.Node("double")
	if nodeC.HasCapability("add-one") {
		t.Fatal("attached feature leaked into sibling instance")
	}

	// Deletion on one instance does not affect the other either.
	if err := a.Remove("even-only"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Node("double"); !ok {
		t.Fatal("sibling instance lost a node after Remove on the other")
	}
}

type addOneFeature struct{}

func (*addOneFeature) FeatureName() string { return "add-one" }
func (*addOneFeature) Produce(out Sample) (Sample, bool) {
	out.Payload = out.Payload.(int) + 1
	return out, true
}

func TestBlueprintConcurrentInstantiate(t *testing.T) {
	bp := numBlueprint(t, 1, 2, 3)
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	graphs := make([]*Graph, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := bp.Instantiate()
			if err != nil {
				errs[i] = err
				return
			}
			if _, err := g.Run(0); err != nil {
				errs[i] = err
			}
			graphs[i] = g
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("instance %d: %v", i, errs[i])
		}
		if got := sinkPayloads(t, graphs[i]); len(got) != 3 {
			t.Fatalf("instance %d delivered %d samples, want 3", i, len(got))
		}
	}
}
