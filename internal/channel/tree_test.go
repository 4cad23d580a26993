package channel

import (
	"context"
	"sync"
	"testing"

	"perpos/internal/core"
)

// retainingFeature keeps every tree it is given, without copying.
type retainingFeature struct {
	mu    sync.Mutex
	trees []*DataTree
}

func (f *retainingFeature) FeatureName() string { return "retainer" }

func (f *retainingFeature) Apply(tree *DataTree) {
	f.mu.Lock()
	f.trees = append(f.trees, tree)
	f.mu.Unlock()
}

// TestFeatureKeepsDeliveredTree: a feature keeps every tree it is
// given, as it was given, across many more deliveries than the history
// ring holds. Every kept tree must still describe its own delivery
// afterwards: nothing the layer does after Apply returns reaches it.
func TestFeatureKeepsDeliveredTree(t *testing.T) {
	const n = 200
	g := core.New()
	mustAdd(t, g, rawSource("src", kindRaw, n))
	mustAdd(t, g, passthrough("proc", kindRaw, kindNMEA))
	mustAdd(t, g, core.NewSink("app", []core.Kind{kindNMEA}))
	mustConnect(t, g, "src", "proc", 0)
	mustConnect(t, g, "proc", "app", 0)

	l := NewLayer(g, WithHistory(4))
	defer l.Close()
	c, ok := l.ChannelInto("app", 0)
	if !ok {
		t.Fatal("no channel into app")
	}
	f := &retainingFeature{}
	if err := c.AttachFeature(f); err != nil {
		t.Fatal(err)
	}

	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.trees) != n {
		t.Fatalf("kept %d trees, want %d", len(f.trees), n)
	}
	for i, tree := range f.trees {
		want := core.LogicalTime(i + 1)
		root := tree.Root
		if root == nil {
			t.Fatalf("kept tree %d lost its root", i)
		}
		if root.Sample.Source != "proc" || root.Sample.Logical != want {
			t.Fatalf("kept tree %d root = %s, want proc:%d", i, root.Sample, want)
		}
		if len(root.Children) != 1 || root.Children[0].Sample.Source != "src" ||
			root.Children[0].Sample.Logical != want {
			t.Fatalf("kept tree %d children = %v, want src:%d", i, root.Children, want)
		}
	}
}

// TestLastTreeMatchesDeliveredTree checks that LastTree, which rebuilds
// from history, returns the tree the channel's features were given at
// the latest delivery, on every channel after every step.
func TestLastTreeMatchesDeliveredTree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (*core.Graph, *core.Sink)
	}{
		{"fig4", buildFig4Graph},
		{"fig2", func(t *testing.T) (*core.Graph, *core.Sink) { return buildFig2Graph(t, 5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := tc.build(t)
			l := NewLayer(g)
			defer l.Close()
			features := make(map[*Channel]*recordingFeature)
			for _, c := range l.Channels() {
				f := &recordingFeature{name: "rec"}
				if err := c.AttachFeature(f); err != nil {
					t.Fatal(err)
				}
				features[c] = f
			}

			for step := 1; ; step++ {
				more, err := g.StepAll()
				if err != nil {
					t.Fatal(err)
				}
				for c, f := range features {
					got, ok := c.LastTree()
					if len(f.trees) == 0 {
						if ok {
							t.Fatalf("step %d: %s: LastTree before any delivery:\n%s", step, c.ID(), got)
						}
						continue
					}
					want := f.trees[len(f.trees)-1].String()
					if !ok || got.String() != want {
						t.Fatalf("step %d: %s: LastTree =\n%s\nwant the delivered tree\n%s", step, c.ID(), got, want)
					}
				}
				if !more {
					break
				}
			}
			deliveries := 0
			for _, f := range features {
				deliveries += len(f.trees)
			}
			if deliveries == 0 {
				t.Fatal("no channel delivered")
			}
		})
	}
}

// TestLastTreeConcurrentWithDeliveries hammers LastTree (which rebuilds
// the tree from history) from a reader goroutine while the async engine
// delivers. Run under -race, the "with feature" row makes every
// delivery build a tree that the feature keeps while the reader
// rebuilds from the same history.
func TestLastTreeConcurrentWithDeliveries(t *testing.T) {
	for _, tc := range []struct {
		name    string
		feature bool
	}{
		{"bare", false},
		{"with feature", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 500
			g := core.New()
			mustAdd(t, g, rawSource("src", kindRaw, n))
			mustAdd(t, g, passthrough("proc", kindRaw, kindNMEA))
			mustAdd(t, g, core.NewSink("app", []core.Kind{kindNMEA}))
			mustConnect(t, g, "src", "proc", 0)
			mustConnect(t, g, "proc", "app", 0)

			l := NewLayer(g, WithHistory(8))
			defer l.Close()
			c, ok := l.ChannelInto("app", 0)
			if !ok {
				t.Fatal("no channel into app")
			}
			f := &retainingFeature{}
			if tc.feature {
				if err := c.AttachFeature(f); err != nil {
					t.Fatal(err)
				}
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if tree, ok := c.LastTree(); ok {
						// The rebuilt tree must be internally consistent
						// no matter when it was taken.
						if tree.Root == nil || tree.Root.Sample.Source != "proc" {
							t.Error("LastTree returned an inconsistent tree")
							return
						}
						_ = tree.Depth()
					}
				}
			}()

			if err := g.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			g.WaitSources()
			if err := g.Stop(); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()

			tree, ok := c.LastTree()
			if !ok {
				t.Fatal("no LastTree after the run")
			}
			if tree.Root.Sample.Logical != n {
				t.Errorf("final tree logical = %d, want %d", tree.Root.Sample.Logical, n)
			}
			if tc.feature && len(f.trees) != n {
				t.Errorf("feature applied %d times, want %d", len(f.trees), n)
			}
		})
	}
}
