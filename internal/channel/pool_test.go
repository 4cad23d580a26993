package channel

import (
	"context"
	"sync"
	"testing"

	"perpos/internal/core"
)

// TestReleaseNodeFullyResets verifies the pool contract: a released
// node leaks nothing from its previous life — zero Sample, zero-length
// children — so a recycled node can never surface stale delivery data.
func TestReleaseNodeFullyResets(t *testing.T) {
	s := core.Sample{
		Kind:    kindRaw,
		Payload: "secret",
		Source:  "src",
		Logical: 7,
		Spans:   []core.Span{{Source: "up", From: 1, To: 3}},
		Attrs:   map[string]any{"hdop": 1.2},
	}
	root := newTreeNode(s)
	root.Children = append(root.Children, newTreeNode(s), newTreeNode(s))
	child := root.Children[0]

	releaseNode(root)

	for name, n := range map[string]*TreeNode{"root": root, "child": child} {
		if n.Sample.Payload != nil || n.Sample.Source != "" || n.Sample.Logical != 0 ||
			n.Sample.Spans != nil || n.Sample.Attrs != nil {
			t.Errorf("%s sample not reset after release: %+v", name, n.Sample)
		}
		if len(n.Children) != 0 {
			t.Errorf("%s has %d children after release, want 0", name, len(n.Children))
		}
	}
}

// TestReleaseTreeResets verifies the tree shell is cleared before
// pooling.
func TestReleaseTreeResets(t *testing.T) {
	tree := newTree()
	tree.Root = newTreeNode(core.Sample{Kind: kindRaw, Payload: 1})
	releaseTree(tree)
	if tree.Root != nil {
		t.Error("tree root not cleared by releaseTree")
	}
	releaseTree(nil) // must not panic
}

// retainingFeature keeps a detached copy of every delivered tree — the
// documented pattern for consumers that hold data past Apply.
type retainingFeature struct {
	mu    sync.Mutex
	trees []*DataTree
}

func (f *retainingFeature) FeatureName() string { return "retainer" }

func (f *retainingFeature) Apply(tree *DataTree) {
	f.mu.Lock()
	f.trees = append(f.trees, tree.Detach())
	f.mu.Unlock()
}

// TestRetainedTreesSurviveRecycling drives enough deliveries through a
// channel that its pooled trees are recycled many times over, while a
// feature retains a detached copy of each. Every retained tree must
// still describe its own delivery afterwards — a detached copy sharing
// state with a pooled node would have been wiped or overwritten.
func TestRetainedTreesSurviveRecycling(t *testing.T) {
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

	for {
		more, err := g.StepAll()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.trees) != n {
		t.Fatalf("retained %d trees, want %d", len(f.trees), n)
	}
	for i, tree := range f.trees {
		root := tree.Root
		if root == nil {
			t.Fatalf("tree %d lost its root after recycling", i)
		}
		if root.Sample.Source != "proc" || root.Sample.Logical != core.LogicalTime(i+1) {
			t.Fatalf("tree %d root = %s, want proc:%d — recycled node leaked into a detached tree",
				i, root.Sample, i+1)
		}
		if len(root.Children) != 1 || root.Children[0].Sample.Source != "src" {
			t.Fatalf("tree %d children = %v, want one src child", i, root.Children)
		}
		if root.Children[0].Sample.Logical != core.LogicalTime(i+1) {
			t.Fatalf("tree %d child logical = %d, want %d",
				i, root.Children[0].Sample.Logical, i+1)
		}
	}
}

// keepingFeature keeps the raw tree it was lent, without Detach — the
// use-after-recycle bug the one-delivery lifetime makes visible.
type keepingFeature struct {
	tree    *DataTree
	logical core.LogicalTime // the root's logical time, read during Apply
}

func (f *keepingFeature) FeatureName() string { return "keeper" }

func (f *keepingFeature) Apply(tree *DataTree) {
	f.tree = tree
	f.logical = tree.Root.Sample.Logical
}

// TestFeatureTreeRecycledAfterDelivery pins the lifetime contract: a
// tree lent to Apply is recycled before the delivery that built it
// returns, not parked on the channel until its next delivery, so a
// feature that kept it without Detach finds it emptied right away.
func TestFeatureTreeRecycledAfterDelivery(t *testing.T) {
	const n = 3
	g := core.New()
	mustAdd(t, g, rawSource("src", kindRaw, n))
	mustAdd(t, g, passthrough("proc", kindRaw, kindNMEA))
	mustAdd(t, g, core.NewSink("app", []core.Kind{kindNMEA}))
	mustConnect(t, g, "src", "proc", 0)
	mustConnect(t, g, "proc", "app", 0)

	l := NewLayer(g)
	defer l.Close()
	c, ok := l.ChannelInto("app", 0)
	if !ok {
		t.Fatal("no channel into app")
	}
	f := &keepingFeature{}
	if err := c.AttachFeature(f); err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= n; i++ {
		f.tree = nil
		if _, err := g.StepAll(); err != nil {
			t.Fatal(err)
		}
		if f.tree == nil {
			t.Fatalf("step %d: feature was not applied", i)
		}
		if f.logical != core.LogicalTime(i) {
			t.Errorf("step %d: Apply saw root logical %d, want %d", i, f.logical, i)
		}
		if f.tree.Root != nil {
			t.Fatalf("step %d: lent tree still holds %s after its delivery — it outlived the delivery that built it",
				i, f.tree.Root.Sample)
		}
	}
}

// TestLastTreeMatchesDeliveredTree checks that LastTree, which rebuilds
// from history, returns the tree the channel's features were lent at
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
// delivery build, lend and release a pooled tree while the reader
// rebuilds: the regression test for pooled-tree recycling racing a
// reader.
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

			r := core.NewRunner(g)
			if err := r.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			r.WaitSources()
			if err := r.Stop(); err != nil {
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
