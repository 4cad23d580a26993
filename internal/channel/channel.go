package channel

import (
	"errors"
	"fmt"
	"sync"

	"perpos/internal/core"
)

// Errors returned by the Process Channel Layer.
var (
	// ErrUnmetRequirement indicates a Channel Feature whose declared
	// requirements are not satisfied by the channel.
	ErrUnmetRequirement = errors.New("channel: feature requirement not satisfied")
	// ErrFeatureExists indicates a duplicate channel feature name.
	ErrFeatureExists = errors.New("channel: feature already attached")
)

// Feature is a Channel Feature (paper §2.2): functionality that depends
// on data produced at several intermediate steps of the positioning
// process. Apply is called by the middleware every time the Channel
// delivers a data element, with the data tree that produced it; the
// feature updates its internal state from the tree. Richer functionality
// (e.g. Likelihood.getLikelihood) is exposed by type-asserting the
// feature, exactly like Component Features.
type Feature interface {
	// FeatureName returns the unique name the feature is attached under.
	FeatureName() string
	// Apply is invoked once per channel delivery, before the consumer
	// processes the delivered sample, so the feature's state always
	// corresponds to the sample the consumer is about to see.
	//
	// The tree is shared read-only with the channel's other features
	// and the layer's tree observer. Nothing recycles it, so an
	// implementation may keep it, or any sample reached through it.
	Apply(tree *DataTree)
}

// Requirements declares what a Channel Feature needs from its channel
// (paper: "input requirements may include Component Features, Channel
// Features, and Processing Components").
type Requirements struct {
	// ComponentFeatures must each be provided by at least one Processing
	// Component in the channel.
	ComponentFeatures []string
	// ChannelFeatures must already be attached to the channel.
	ChannelFeatures []string
	// Components are component type names (Spec.Name) that must be
	// present in the channel.
	Components []string
}

// RequiringFeature is implemented by Channel Features that declare
// requirements; they are validated at attach time.
type RequiringFeature interface {
	Feature
	Requires() Requirements
}

// Channel is the PCL connection between two end points: a data source
// (sensor or merge component) and a consumer (merge component or the
// application). It encapsulates the positioning process taking place
// between them (paper §2.2).
type Channel struct {
	id       string
	source   *core.Node
	nodes    []*core.Node // source .. endpoint, in flow order
	endpoint *core.Node
	consumer *core.Node
	port     int // consumer input port the channel feeds

	layer *Layer // owning layer; set at derive time, used for lazy trees
	// deliveries counts the channel's deliveries, for the tree
	// observer's sampling. Guarded by the layer's lock.
	deliveries uint64

	mu       sync.RWMutex
	features []Feature
	// lastRoot/hasRoot record the latest delivery; LastTree rebuilds its
	// tree from the layer's history on demand, since a delivery builds a
	// tree only when it has a consumer.
	lastRoot core.Sample
	hasRoot  bool
}

// ID returns the channel identifier, "<source>-><consumer>:<port>".
func (c *Channel) ID() string { return c.id }

// NodeIDs returns the component IDs inside the channel in flow order.
func (c *Channel) NodeIDs() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.ID()
	}
	return out
}

// AttachFeature adds a Channel Feature, validating any declared
// requirements against the channel's components, their Component
// Features, and previously attached Channel Features.
func (c *Channel) AttachFeature(f Feature) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, existing := range c.features {
		if existing.FeatureName() == f.FeatureName() {
			return fmt.Errorf("%w: %q on %q", ErrFeatureExists, f.FeatureName(), c.id)
		}
	}
	if rf, ok := f.(RequiringFeature); ok {
		if err := c.checkRequirements(rf.Requires()); err != nil {
			return fmt.Errorf("attach %q to %q: %w", f.FeatureName(), c.id, err)
		}
	}
	c.features = append(c.features, f)
	return nil
}

// checkRequirements validates req against the channel. Called with c.mu
// held.
func (c *Channel) checkRequirements(req Requirements) error {
	for _, want := range req.ComponentFeatures {
		found := false
		for _, n := range c.nodes {
			if n.HasCapability(want) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%w: component feature %q", ErrUnmetRequirement, want)
		}
	}
	for _, want := range req.ChannelFeatures {
		found := false
		for _, f := range c.features {
			if f.FeatureName() == want {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%w: channel feature %q", ErrUnmetRequirement, want)
		}
	}
	for _, want := range req.Components {
		found := false
		for _, n := range c.nodes {
			if n.Spec().Name == want {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%w: component %q", ErrUnmetRequirement, want)
		}
	}
	return nil
}

// Feature returns the named feature. It searches attached Channel
// Features first, then the end point's Component Features ("a Channel
// Feature is semantically equivalent to a Component Feature attached to
// the last Processing Component of the Channel" — and vice versa for
// lookups), and finally the Component Features of the other components
// in the channel, walking upstream. The last rule is what lets the
// EnTracked Channel Feature find the Power Strategy feature sitting on
// the sensor wrapper at the far end of the channel (§3.3).
func (c *Channel) Feature(name string) (any, bool) {
	c.mu.RLock()
	for _, f := range c.features {
		if f.FeatureName() == name {
			c.mu.RUnlock()
			return f, true
		}
	}
	c.mu.RUnlock()
	for i := len(c.nodes) - 1; i >= 0; i-- {
		if cf, ok := c.nodes[i].Feature(name); ok {
			return cf, true
		}
	}
	return nil, false
}

// Features returns the attached Channel Features in attach order.
func (c *Channel) Features() []Feature {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Feature, len(c.features))
	copy(out, c.features)
	return out
}

// FeatureNames returns the names of attached Channel Features.
func (c *Channel) FeatureNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, len(c.features))
	for i, f := range c.features {
		out[i] = f.FeatureName()
	}
	return out
}

// LastTree returns the data tree of the most recent delivery, if any.
// PSL-averse developers can use this for ad-hoc inspection; Channel
// Features should rely on Apply instead. The tree is always rebuilt
// from the delivered root and the layer's per-component history, and
// the caller owns it: contributions the history ring (WithHistory) has
// since evicted are absent from the rebuild.
func (c *Channel) LastTree() (*DataTree, bool) {
	c.mu.RLock()
	root, ok := c.lastRoot, c.hasRoot && c.layer != nil
	c.mu.RUnlock()
	if !ok {
		return nil, false
	}
	// Build outside c.mu: the layer lock is ordered before the channel
	// lock everywhere else (Tap -> deliver).
	l := c.layer
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buildTreeLocked(c, root), true
}

// deliver is called by the Layer when the channel end point emits root:
// it records the root for LastTree and, when the layer built the
// delivery's tree, applies every Channel Feature to it.
func (c *Channel) deliver(root core.Sample, tree *DataTree) {
	c.mu.Lock()
	c.lastRoot = root
	c.hasRoot = true
	features := c.features
	c.mu.Unlock()
	if tree == nil {
		return
	}
	for _, f := range features {
		f.Apply(tree)
	}
}

// hasFeatures reports whether any Channel Feature is attached — the
// per-delivery check deciding whether the delivery builds a tree.
func (c *Channel) hasFeatures() bool {
	c.mu.RLock()
	n := len(c.features)
	c.mu.RUnlock()
	return n > 0
}

// contains reports whether the channel includes the given component.
func (c *Channel) contains(id string) bool {
	for _, n := range c.nodes {
		if n.ID() == id {
			return true
		}
	}
	return false
}
