package core

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Node wraps a Component inside a Graph: it owns the component's
// attached Component Features, its logical clock, the span bookkeeping
// that feeds the Process Channel Layer's data trees, and its outgoing
// edges.
//
// Nodes are created by Graph.Add and must only be mutated through Graph
// and Node methods.
type Node struct {
	graph *Graph
	comp  Component
	id    string // cached; ID must be constant
	spec  Spec   // cached; Spec must be constant
	// prod is comp as a Producer, nil when it is not one: resolved
	// once, so no source step asserts an interface to an interface.
	prod Producer

	// mu is held while the component runs in process and while one of
	// a source's emissions propagates (its emit closure and
	// Graph.Inject), so a component never runs concurrently with
	// itself, and one stuck in Process holds up only its own branch.
	// Locks are taken along edges, and the graph is acyclic.
	mu sync.Mutex
	// calls counts observed process/step calls to pick the timed ones.
	// Guarded by mu on processing nodes; a source is stepped by one
	// goroutine at a time.
	calls uint32
	// job steps a source while the graph is started (guarded by the
	// graph's runMu); attempt, its restart attempt.
	job     *Job
	attempt int

	// features in attach order (hook order is attach order).
	features []Feature

	// out lists downstream connections from this node's output port.
	out []edge
	// inbound[port] is the upstream node connected to each input port,
	// or nil when unconnected.
	inbound []*Node

	// clock is the component's logical clock: number of emissions.
	clock LogicalTime
	// pending tracks, per upstream source ID, the range of logical times
	// consumed since the last emission (Fig. 4 span bookkeeping). A node
	// has at most a handful of upstream sources, so this is a linear-scan
	// slice rather than a map: no string hashing per consumed sample, no
	// map iteration per emission. The backing array is reused between
	// grouping windows.
	pending []Span
	// emitted marks that an emission happened after the last consume, so
	// the next consume starts a fresh pending set.
	emitted bool

	// selfEmit is the component-output Emit closure, built once at Add
	// time. Per-delivery closure construction is measurable on the
	// saturated hot path (one closure per process/step call).
	selfEmit Emit
}

// edge is one downstream connection: deliveries go to to's input port.
type edge struct {
	to   *Node
	port int
}

// ID returns the wrapped component's ID.
func (n *Node) ID() string { return n.id }

// Component returns the wrapped component, giving PSL clients access to
// "all methods available on the implementing classes" (paper §2.1).
func (n *Node) Component() Component { return n.comp }

// Spec returns the component's declared spec.
func (n *Node) Spec() Spec { return n.spec }

// Clock returns the node's current logical time (number of emissions).
func (n *Node) Clock() LogicalTime { return n.clock }

// Capabilities returns the effective feature names provided at the
// node's output port: the component's native features plus every
// attached Component Feature.
func (n *Node) Capabilities() []string {
	caps := make([]string, 0, len(n.spec.Output.Features)+len(n.features))
	caps = append(caps, n.spec.Output.Features...)
	for _, f := range n.features {
		caps = append(caps, f.FeatureName())
	}
	sort.Strings(caps)
	return caps
}

// HasCapability reports whether the node's output provides the named
// feature.
func (n *Node) HasCapability(name string) bool {
	for _, c := range n.spec.Output.Features {
		if c == name {
			return true
		}
	}
	for _, f := range n.features {
		if f.FeatureName() == name {
			return true
		}
	}
	return false
}

// AttachFeature hooks a Component Feature into the node (paper §2.1).
// The feature's name becomes part of the node's output capabilities.
// Attaching two features with the same name is an error.
func (n *Node) AttachFeature(f Feature) error {
	n.graph.mu.Lock()
	defer n.graph.mu.Unlock()
	if n.HasCapability(f.FeatureName()) {
		return fmt.Errorf("%w: %q on %q", ErrFeatureExists, f.FeatureName(), n.ID())
	}
	if b, ok := f.(BindableFeature); ok {
		b.Bind(&featureHost{node: n, feature: f.FeatureName()})
	}
	n.features = append(n.features, f)
	return nil
}

// DetachFeature removes the named attached feature. Native component
// features cannot be detached.
func (n *Node) DetachFeature(name string) error {
	n.graph.mu.Lock()
	defer n.graph.mu.Unlock()
	for i, f := range n.features {
		if f.FeatureName() == name {
			n.features = append(n.features[:i], n.features[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: feature %q on %q", ErrNotFound, name, n.ID())
}

// Feature returns the attached or native feature with the given name.
// Callers type-assert the result to the feature's functional interface —
// the component "will to its surroundings appear to implement the
// functionality provided by the feature".
func (n *Node) Feature(name string) (Feature, bool) {
	n.graph.mu.RLock()
	defer n.graph.mu.RUnlock()
	return n.featureLocked(name)
}

func (n *Node) featureLocked(name string) (Feature, bool) {
	for _, f := range n.features {
		if f.FeatureName() == name {
			return f, true
		}
	}
	return nil, false
}

// Features returns the attached features in attach order.
func (n *Node) Features() []Feature {
	n.graph.mu.RLock()
	defer n.graph.mu.RUnlock()
	fs := make([]Feature, len(n.features))
	copy(fs, n.features)
	return fs
}

// Upstream returns the node connected to each input port (nil entries
// for unconnected ports).
func (n *Node) Upstream() []*Node {
	n.graph.mu.RLock()
	defer n.graph.mu.RUnlock()
	up := make([]*Node, len(n.inbound))
	copy(up, n.inbound)
	return up
}

// Downstream returns the nodes this node's output is connected to.
func (n *Node) Downstream() []*Node {
	n.graph.mu.RLock()
	defer n.graph.mu.RUnlock()
	ds := make([]*Node, len(n.out))
	for i, e := range n.out {
		ds[i] = e.to
	}
	return ds
}

// --- engine internals: both engines propagate through these ---

// timedEvery is the sampling period of Observer.Done durations: a node
// times one observed call in timedEvery, which bounds the clock reads
// and the writes to fleet-wide histograms a saturated step pays.
const timedEvery = 16

// process delivers one sample to the node's input port: the observers'
// gate, then consume hooks, span bookkeeping and the component's
// Process under the node lock, then the outcome to the observers and,
// on failure, the graph's error buffer.
func (n *Node) process(port int, s Sample) {
	hooks := n.graph.hooks()
	for _, o := range hooks {
		if !o.Allow(n.id) {
			return
		}
	}
	n.mu.Lock()
	d, err := n.consume(port, &s, hooks != nil)
	n.mu.Unlock()
	n.report(hooks, d, err)
}

// consume runs the node's part of process with n.mu held. A panicking
// component (or feature hook) is contained: the panic becomes an error
// instead of taking the whole positioning process down — third-party
// Processing Components are exactly the code the middleware cannot
// vouch for.
func (n *Node) consume(port int, s *Sample, observed bool) (d time.Duration, err error) {
	start := n.startTimer(observed)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("component %q: %w: %v", n.ID(), ErrPanicked, r)
		}
		d = since(start)
	}()
	for _, f := range n.features {
		hook, ok := f.(ConsumeHook)
		if !ok {
			continue
		}
		var keep bool
		*s, keep = hook.Consume(port, *s)
		if !keep {
			return 0, nil
		}
	}
	n.noteConsumed(s)
	if perr := n.comp.Process(port, *s, n.selfEmit); perr != nil {
		return 0, fmt.Errorf("component %q: %w", n.ID(), perr)
	}
	return 0, nil
}

// step drives a Producer source for one tick, with the same panic
// containment, timing and reporting as process. Sources are never
// gated, and Step runs without the node lock: only its emissions take
// it, so a source blocked in Step does not hold up Graph.Inject.
func (n *Node) step() (more bool, err error) {
	hooks := n.graph.hooks()
	var d time.Duration
	more, d, err = n.produce(hooks != nil)
	n.report(hooks, d, err)
	return more, err
}

func (n *Node) produce(observed bool) (more bool, d time.Duration, err error) {
	start := n.startTimer(observed)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("source %q: %w: %v", n.ID(), ErrPanicked, r)
		}
		d = since(start)
	}()
	if n.prod == nil {
		return false, 0, fmt.Errorf("%w: %q is not a producer", ErrNotProducer, n.ID())
	}
	more, serr := n.prod.Step(n.selfEmit)
	if serr != nil {
		return more, 0, fmt.Errorf("source %q: %w", n.ID(), serr)
	}
	return more, 0, nil
}

// epoch anchors call timing on the monotonic clock: time.Since a
// monotonic reading is one clock read, where time.Now is two.
var epoch = time.Now()

// startTimer counts one observed call and returns its start offset
// when it is the sampled one, or -1.
func (n *Node) startTimer(observed bool) time.Duration {
	if !observed {
		return -1
	}
	n.calls++
	if n.calls%timedEvery != 1 {
		return -1
	}
	return time.Since(epoch)
}

// since returns the time elapsed from a startTimer result (0 when the
// call was not timed).
func since(start time.Duration) time.Duration {
	if start < 0 {
		return 0
	}
	return time.Since(epoch) - start
}

// report hands one call's outcome to the observers and notes a failure
// in the graph's error buffer.
func (n *Node) report(hooks []Observer, d time.Duration, err error) {
	for _, o := range hooks {
		o.Done(n.id, d, err)
	}
	if err != nil {
		n.graph.noteError(err)
	}
}

// noteConsumed extends the pending span set with one consumed sample.
func (n *Node) noteConsumed(s *Sample) {
	if n.emitted {
		// First consumption after an emission starts a new grouping
		// window (Fig. 4: NMEA2's span starts after NMEA1's emission).
		n.pending = n.pending[:0]
		n.emitted = false
	}
	if s.Source == "" {
		return
	}
	for i := range n.pending {
		if n.pending[i].Source == s.Source {
			if s.Logical < n.pending[i].From {
				n.pending[i].From = s.Logical
			}
			if s.Logical > n.pending[i].To {
				n.pending[i].To = s.Logical
			}
			return
		}
	}
	n.pending = append(n.pending, Span{Source: s.Source, From: s.Logical, To: s.Logical})
}

// currentSpans snapshots the pending spans in deterministic order.
func (n *Node) currentSpans() []Span {
	if len(n.pending) == 0 {
		return nil
	}
	spans := make([]Span, len(n.pending))
	copy(spans, n.pending)
	// Insertion sort: a node has at most a handful of upstreams, and
	// sort.Slice's closure allocates on every emission.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].Source < spans[j-1].Source; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	return spans
}

// emitLocked emits one component output with the node lock held: a
// source's emit closure, and Graph.Inject.
func (n *Node) emitLocked(s Sample) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.emit(s, "")
}

// emit stamps and propagates one output sample.
func (n *Node) emit(s Sample, fromFeature string) {
	if fromFeature == "" {
		// Produce hooks may rewrite (but not retype) or suppress the
		// emission. Feature-emitted data bypasses produce hooks to avoid
		// feedback through the feature that created it.
		kind := s.Kind
		for _, f := range n.features {
			hook, ok := f.(ProduceHook)
			if !ok {
				continue
			}
			var keep bool
			s, keep = hook.Produce(s)
			if !keep {
				return
			}
			if s.Kind != kind {
				// Enforce the paper's rule: produce hooks cannot change
				// the data type. Restore the kind rather than panic.
				s.Kind = kind
			}
		}
	}

	n.clock++
	s.Source = n.ID()
	s.Logical = n.clock
	s.Spans = n.currentSpans()
	s.FromFeature = fromFeature
	n.emitted = true

	n.graph.notifyTaps(n.ID(), s)

	for _, e := range n.out {
		spec := e.to.spec
		if e.port >= len(spec.Inputs) {
			continue
		}
		in := spec.Inputs[e.port]
		if fromFeature != "" {
			if !in.acceptsFeature(fromFeature) {
				continue
			}
		} else if !in.accepts(s.Kind) {
			continue
		}
		e.to.process(e.port, s)
	}
}

// featureHost implements FeatureHost for one attached feature.
type featureHost struct {
	node    *Node
	feature string
}

var _ ClockedHost = (*featureHost)(nil)

func (h *featureHost) Component() Component { return h.node.comp }

// Clock implements ClockedHost. Reading the bare field is safe in the
// contexts features run in: hooks execute under the node lock, where
// the clock is stable.
func (h *featureHost) Clock() LogicalTime { return h.node.clock }

func (h *featureHost) EmitFeatureData(s Sample) {
	h.node.emit(s, h.feature)
}
