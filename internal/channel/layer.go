package channel

import (
	"fmt"
	"sync"

	"perpos/internal/core"
)

// Layer is the Process Channel Layer view of a graph: it derives the
// Channels from the PSL structure (so the causal connection survives
// graph edits — call Refresh after structural changes), records every
// emission, and builds the Fig. 4 data tree of a channel delivery for
// the channel's features (every delivery) and the tree observer (one
// delivery in treeEvery).
type Layer struct {
	g *core.Graph

	mu       sync.Mutex
	channels []*Channel
	// byEndpoint maps endpoint component ID -> channels delivering from
	// it (a fan-out endpoint can feed several consumers).
	byEndpoint map[string][]*Channel
	// history holds recent samples per component for tree construction.
	history map[string]*ring
	keep    int
	// onTree, when set, is invoked with the data tree of one delivery
	// in treeEvery per channel (after the layer lock is released,
	// alongside feature delivery).
	onTree func(c *Channel, t *DataTree)

	cancelTap func()
}

// LayerOption configures a Layer.
type LayerOption func(*Layer)

// WithHistory sets how many recent samples per component are retained
// for data-tree construction (default 1024).
func WithHistory(n int) LayerOption {
	return func(l *Layer) {
		if n > 0 {
			l.keep = n
		}
	}
}

// treeEvery is the tree observer's sampling period: it sees the data
// tree of the first delivery in every treeEvery per channel, so a
// channel without features builds a tree one delivery in treeEvery
// (the period core uses to time node calls).
const treeEvery = 16

// WithTreeObserver registers fn to be called with the data tree of the
// first delivery in every treeEvery per channel (deliveries 1, 17, 33,
// ...), right after the channel's own features received it. Features
// still get a tree at every delivery; the observer is a sample. The
// callback runs outside the layer lock on the emitting goroutine, so
// it must be cheap and safe for concurrent use — the intended client
// is metrics (tree-depth histograms), not feature logic. fn shares the
// tree read-only with the channel's features and may keep it.
func WithTreeObserver(fn func(c *Channel, t *DataTree)) LayerOption {
	return func(l *Layer) {
		l.onTree = fn
	}
}

// NewLayer derives the channels of g and starts observing its
// emissions. Call Close when done.
func NewLayer(g *core.Graph, opts ...LayerOption) *Layer {
	l := &Layer{
		g:    g,
		keep: 1024,
	}
	for _, opt := range opts {
		opt(l)
	}
	l.rebuild(nil)
	l.cancelTap = g.Tap(l.Tap)
	return l
}

// Close detaches the layer from the graph.
func (l *Layer) Close() {
	if l.cancelTap != nil {
		l.cancelTap()
		l.cancelTap = nil
	}
}

// Channels returns the current channels in deterministic order.
func (l *Layer) Channels() []*Channel {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Channel, len(l.channels))
	copy(out, l.channels)
	return out
}

// ChannelInto returns the channel feeding the given consumer input port
// — the Fig. 5 "inputChannel" the particle filter asks for.
func (l *Layer) ChannelInto(consumerID string, port int) (*Channel, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.channels {
		if c.consumer != nil && c.consumer.ID() == consumerID && c.port == port {
			return c, true
		}
	}
	return nil, false
}

// ChannelsFrom returns the channels whose data source is the given
// component.
func (l *Layer) ChannelsFrom(sourceID string) []*Channel {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*Channel
	for _, c := range l.channels {
		if c.source.ID() == sourceID {
			out = append(out, c)
		}
	}
	return out
}

// Refresh re-derives the channels after a graph edit, preserving the
// Channel Features of channels whose identity (source, consumer, port)
// is unchanged — this is what maintains the reflection layer's causal
// connection to the positioning system.
func (l *Layer) Refresh() {
	l.mu.Lock()
	old := l.channels
	l.mu.Unlock()
	l.rebuild(old)
}

func (l *Layer) rebuild(old []*Channel) {
	oldFeatures := make(map[string][]Feature, len(old))
	oldRoots := make(map[string]core.Sample, len(old))
	for _, c := range old {
		oldFeatures[c.id] = c.Features()
		c.mu.RLock()
		if c.hasRoot {
			oldRoots[c.id] = c.lastRoot
		}
		c.mu.RUnlock()
	}

	channels := derive(l.g)
	byEndpoint := make(map[string][]*Channel)
	for _, c := range channels {
		c.layer = l
		if fs, ok := oldFeatures[c.id]; ok {
			c.features = fs
			if root, ok := oldRoots[c.id]; ok {
				c.lastRoot = root
				c.hasRoot = true
			}
		}
		epID := c.endpoint.ID()
		byEndpoint[epID] = append(byEndpoint[epID], c)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.channels = channels
	l.byEndpoint = byEndpoint
	if l.history == nil {
		l.history = make(map[string]*ring)
	}
}

// Tap is the layer's graph tap (a core.TapFunc): record the sample, and
// when the emitting component is a channel end point, deliver it on the
// endpoint's channels, with the data tree when a consumer needs one.
func (l *Layer) Tap(componentID string, s core.Sample) {
	l.mu.Lock()
	r, ok := l.history[componentID]
	if !ok {
		r = newRing(l.keep)
		l.history[componentID] = r
	}
	r.add(s)

	// Small stack buffer: an endpoint almost always feeds one channel,
	// so the common case builds the delivery batch without allocating.
	var dbuf [4]delivery
	deliveries := dbuf[:0]
	if s.FromFeature == "" {
		for _, c := range l.byEndpoint[componentID] {
			// A tree is built only when something consumes it at delivery
			// time: attached features, or the tree observer on its sampled
			// delivery. Saturated pipelines with neither skip construction.
			d := delivery{c: c, observe: l.onTree != nil && c.deliveries%treeEvery == 0}
			c.deliveries++
			if d.observe || c.hasFeatures() {
				d.tree = l.buildTreeLocked(c, s)
			}
			deliveries = append(deliveries, d)
		}
	}
	l.mu.Unlock()

	// Apply features outside the layer lock: Apply implementations may
	// call back into the layer or the graph.
	for _, d := range deliveries {
		d.c.deliver(s, d.tree)
		if d.observe {
			l.onTree(d.c, d.tree)
		}
	}
}

type delivery struct {
	c       *Channel
	tree    *DataTree
	observe bool // the tree observer samples this delivery
}

// buildTreeLocked builds the Fig. 4 data tree for one endpoint sample by
// resolving consumption spans against recorded history, bounded to the
// channel's own components.
func (l *Layer) buildTreeLocked(c *Channel, root core.Sample) *DataTree {
	return &DataTree{Root: l.buildNodeLocked(c, root)}
}

func (l *Layer) buildNodeLocked(c *Channel, s core.Sample) *TreeNode {
	node := &TreeNode{Sample: s}
	for _, span := range s.Spans {
		if !c.contains(span.Source) {
			// The span refers outside the channel (e.g. a merge
			// source consuming its own input channels) — the tree
			// stops at the channel boundary.
			continue
		}
		r, ok := l.history[span.Source]
		if !ok {
			continue
		}
		// Scan the ring's two contiguous segments directly rather than
		// materializing a filtered copy per span per node.
		lo, hi := r.segments()
		for _, seg := range [2][]core.Sample{lo, hi} {
			for i := range seg {
				if seg[i].Logical >= span.From && seg[i].Logical <= span.To {
					node.Children = append(node.Children, l.buildNodeLocked(c, seg[i]))
				}
			}
		}
	}
	return node
}

// View is a structural snapshot of the PCL for inspection tooling: the
// middle layer of Fig. 2.
type View struct {
	Sources  []string
	Merges   []string
	Sinks    []string
	Channels []Description
}

// View returns the current PCL structure.
func (l *Layer) View() View {
	var v View
	for _, n := range l.g.Nodes() {
		spec := n.Spec()
		switch {
		case spec.IsSource():
			v.Sources = append(v.Sources, n.ID())
		case spec.IsSink():
			v.Sinks = append(v.Sinks, n.ID())
		case spec.IsMerge():
			v.Merges = append(v.Merges, n.ID())
		}
	}
	for _, c := range l.Channels() {
		v.Channels = append(v.Channels, c.Describe())
	}
	return v
}

// derive computes the channels of a graph: one channel per linear
// pipeline from a data source (graph source or merge component) to the
// next merge component or sink.
func derive(g *core.Graph) []*Channel {
	// adjacency: from -> outgoing edges, in deterministic order.
	adj := make(map[string][]core.Edge)
	for _, e := range g.Edges() {
		adj[e.From] = append(adj[e.From], e)
	}
	nodeByID := make(map[string]*core.Node)
	for _, n := range g.Nodes() {
		nodeByID[n.ID()] = n
	}

	var channels []*Channel
	var follow func(source *core.Node, path []*core.Node, e core.Edge)
	follow = func(source *core.Node, path []*core.Node, e core.Edge) {
		next := nodeByID[e.To]
		spec := next.Spec()
		if spec.IsMerge() || spec.IsSink() {
			endpoint := path[len(path)-1]
			channels = append(channels, &Channel{
				id:       fmt.Sprintf("%s->%s:%d", source.ID(), next.ID(), e.Port),
				source:   source,
				nodes:    append([]*core.Node(nil), path...),
				endpoint: endpoint,
				consumer: next,
				port:     e.Port,
			})
			return
		}
		// One preallocated copy per extension. The copy (rather than
		// append(path, next)) is what keeps sibling branches of a fan-out
		// from aliasing one backing array and overwriting each other's
		// tails; the previous version copied the path twice per step.
		extended := make([]*core.Node, len(path)+1)
		copy(extended, path)
		extended[len(path)] = next
		outs := adj[next.ID()]
		if len(outs) == 0 {
			// Dangling pipeline: a channel without a consumer yet.
			channels = append(channels, &Channel{
				id:       fmt.Sprintf("%s->(unconnected)", source.ID()),
				source:   source,
				nodes:    extended,
				endpoint: next,
				consumer: nil,
				port:     -1,
			})
			return
		}
		for _, out := range outs {
			follow(source, extended, out)
		}
	}

	for _, n := range g.Nodes() {
		spec := n.Spec()
		if !spec.IsSource() && !spec.IsMerge() {
			continue
		}
		for _, e := range adj[n.ID()] {
			follow(n, []*core.Node{n}, e)
		}
	}
	return channels
}

// ring is a fixed-capacity history of samples from one component,
// ordered by logical time.
type ring struct {
	buf  []core.Sample
	next int
	full bool
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]core.Sample, capacity)}
}

func (r *ring) add(s core.Sample) {
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// segments returns the ring contents oldest-first as up to two
// contiguous views of the backing buffer, without copying.
func (r *ring) segments() ([]core.Sample, []core.Sample) {
	if r.full {
		return r.buf[r.next:], r.buf[:r.next]
	}
	return r.buf[:r.next], nil
}
