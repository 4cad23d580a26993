package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Observer watches a graph run. Both engines — StepAll/StepN and the
// source jobs of a started graph (Start) — call it from the same Node
// methods, so it sees the same events whichever drives the graph.
// Methods run on the propagating goroutine and must be fast and safe
// for concurrent use.
type Observer interface {
	// Tap is called for every emission anywhere in the graph, before
	// the sample propagates downstream.
	Tap(nodeID string, s Sample)
	// Allow is called before each delivery to a node's input port;
	// false drops the sample (a breaker's quarantine). Sources are
	// never gated.
	Allow(nodeID string) bool
	// Done is called after every process or step: err is nil on
	// success and wraps ErrPanicked when the component panicked. d is
	// the call's wall time on the one call in timedEvery per node that
	// is timed, and 0 on the others.
	Done(nodeID string, d time.Duration, err error)
	// Restarted is called after a started graph restarts a failed
	// source (attempt counts consecutive restarts since the last
	// success).
	Restarted(nodeID string, attempt int)
}

// TapFunc observes every sample emitted anywhere in the graph. Taps are
// how the Process Channel Layer maintains its causal connection to the
// positioning process. As an Observer it allows every delivery and
// ignores outcomes.
type TapFunc func(componentID string, s Sample)

// Tap implements Observer.
func (f TapFunc) Tap(componentID string, s Sample) { f(componentID, s) }

// Allow implements Observer: a tap gates nothing.
func (TapFunc) Allow(string) bool { return true }

// Done implements Observer.
func (TapFunc) Done(string, time.Duration, error) {}

// Restarted implements Observer.
func (TapFunc) Restarted(string, int) {}

// TapEvent is one observed emission: the component that emitted and the
// sample as stamped at emission time. Tools that record a tap stream for
// later replay keep it as a slice of these.
type TapEvent struct {
	ComponentID string
	Sample      Sample
}

// Edge describes one connection for inspection.
type Edge struct {
	From string
	To   string
	Port int
}

// Graph is the reified positioning process: Processing Components wired
// from sensors (sources) toward the application (sink). It supports the
// paper's PSL operations — insert, delete, connect, feature attachment —
// plus synchronous propagation for deterministic runs.
//
// Concurrency contract: structural mutation (Add/Connect/Remove/attach)
// must not run concurrently with propagation (Inject/Step*). Start
// freezes the structure until Stop, except inside Pause.
type Graph struct {
	mu    sync.RWMutex
	nodes map[string]*Node
	order []string // insertion order, for deterministic iteration

	// producers caches the Producer source nodes StepAll drives;
	// invalidated (under mu) when the node set changes.
	producers []*Node

	obsMu sync.Mutex
	obs   map[int]Observer
	obsID int
	// observing is an immutable snapshot of obs, rebuilt on Observe and
	// cancel, so the propagation path reads it with one atomic load.
	observing atomic.Pointer[observerList]

	errMu sync.Mutex
	// errPending mirrors "errs or errDropped non-empty" so the per-step
	// drain check is a single atomic load when nothing failed.
	errPending atomic.Bool
	errs       []error
	errDropped int

	// running freezes the structure while the graph is started,
	// outside Pause.
	running atomic.Bool
	// runMu serialises Start, Pause, Stop and WaitSources, and guards
	// the sources' jobs (Node.job).
	runMu sync.Mutex
	// started is the live engine's state from Start to Stop, and nil
	// while the graph is not started.
	started atomic.Pointer[runState]
}

// observerList snapshots a graph's observers in registration order.
type observerList struct {
	// all is tapped on every emission.
	all []Observer
	// hooks holds the observers that gate or report: all but plain
	// TapFuncs, whose other methods do nothing.
	hooks []Observer
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[string]*Node),
		obs:   make(map[int]Observer),
	}
}

// Add registers a component as a new node. The component's ID must be
// unique and its spec well-formed.
func (g *Graph) Add(c Component) (*Node, error) {
	if err := validateSpec(c); err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.running.Load() {
		return nil, ErrRunning
	}
	id := c.ID()
	if _, exists := g.nodes[id]; exists {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	n := &Node{
		graph:   g,
		comp:    c,
		id:      id,
		spec:    c.Spec(),
		inbound: make([]*Node, len(c.Spec().Inputs)),
	}
	n.prod, _ = c.(Producer)
	n.selfEmit = func(s Sample) { n.emit(s, "") }
	if n.spec.IsSource() {
		// A source's emissions take its lock, which serialises them
		// with Graph.Inject; Step itself runs unlocked.
		n.selfEmit = n.emitLocked
	}
	g.nodes[id] = n
	g.order = append(g.order, id)
	g.producers = nil
	return n, nil
}

func validateSpec(c Component) error {
	if c.ID() == "" {
		return fmt.Errorf("%w: empty component id", ErrInvalidSpec)
	}
	spec := c.Spec()
	for i, in := range spec.Inputs {
		if len(in.Accepts) == 0 && len(in.AcceptsFeatures) == 0 {
			return fmt.Errorf("%w: %q input port %d accepts nothing",
				ErrInvalidSpec, c.ID(), i)
		}
	}
	return nil
}

// Node returns the node with the given component ID.
func (g *Graph) Node(id string) (*Node, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	return n, ok
}

// Nodes returns all nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ns := make([]*Node, 0, len(g.order))
	for _, id := range g.order {
		ns = append(ns, g.nodes[id])
	}
	return ns
}

// Edges returns every connection in the graph in deterministic order.
func (g *Graph) Edges() []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Edge
	for _, id := range g.order {
		n := g.nodes[id]
		for _, e := range n.out {
			out = append(out, Edge{From: id, To: e.to.ID(), Port: e.port})
		}
	}
	return out
}

// Connect wires from's output port to input port `port` of to. It
// validates port range and availability, kind compatibility, required
// features (paper §2.1 requirement/capability matching) and acyclicity.
func (g *Graph) Connect(fromID, toID string, port int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.running.Load() {
		return ErrRunning
	}
	from, ok := g.nodes[fromID]
	if !ok {
		return fmt.Errorf("%w: component %q", ErrNotFound, fromID)
	}
	to, ok := g.nodes[toID]
	if !ok {
		return fmt.Errorf("%w: component %q", ErrNotFound, toID)
	}
	if port < 0 || port >= len(to.spec.Inputs) {
		return fmt.Errorf("%w: %q port %d (component has %d input ports)",
			ErrPortIndex, toID, port, len(to.spec.Inputs))
	}
	if to.inbound[port] != nil {
		return fmt.Errorf("%w: %q port %d", ErrPortBusy, toID, port)
	}
	in := to.spec.Inputs[port]
	if err := checkCompatible(from, in); err != nil {
		return fmt.Errorf("connect %q -> %q port %d: %w", fromID, toID, port, err)
	}
	if g.reaches(to, from) {
		return fmt.Errorf("%w: %q -> %q", ErrCycle, fromID, toID)
	}
	from.out = append(from.out, edge{to: to, port: port})
	to.inbound[port] = from
	return nil
}

// checkCompatible validates kinds and required features of a prospective
// connection. Called with g.mu held.
func checkCompatible(from *Node, in PortSpec) error {
	kindOK := in.accepts(from.spec.Output.Kind)
	// A port that only wants feature-emitted data is satisfied when the
	// upstream provides those features.
	if !kindOK && len(in.AcceptsFeatures) > 0 {
		kindOK = true
		for _, f := range in.AcceptsFeatures {
			if !hasCapabilityLocked(from, f) {
				kindOK = false
				break
			}
		}
	}
	if !kindOK {
		return fmt.Errorf("%w: output %q not in %v", ErrKindMismatch,
			from.spec.Output.Kind, in.Accepts)
	}
	for _, f := range in.RequiresFeatures {
		if !hasCapabilityLocked(from, f) {
			return fmt.Errorf("%w: %q", ErrMissingFeature, f)
		}
	}
	return nil
}

func hasCapabilityLocked(n *Node, name string) bool {
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

// reaches reports whether to is reachable from from by following output
// edges. Called with g.mu held.
func (g *Graph) reaches(from, to *Node) bool {
	if from == to {
		return true
	}
	for _, e := range from.out {
		if g.reaches(e.to, to) {
			return true
		}
	}
	return false
}

// Disconnect removes the edge from -> to at the given input port.
func (g *Graph) Disconnect(fromID, toID string, port int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.running.Load() {
		return ErrRunning
	}
	from, ok := g.nodes[fromID]
	if !ok {
		return fmt.Errorf("%w: component %q", ErrNotFound, fromID)
	}
	to, ok := g.nodes[toID]
	if !ok {
		return fmt.Errorf("%w: component %q", ErrNotFound, toID)
	}
	for i, e := range from.out {
		if e.to == to && e.port == port {
			from.out = append(from.out[:i], from.out[i+1:]...)
			to.inbound[port] = nil
			return nil
		}
	}
	return fmt.Errorf("%w: edge %q -> %q port %d", ErrNotFound, fromID, toID, port)
}

// Remove deletes a component from the graph, disconnecting all of its
// edges first.
func (g *Graph) Remove(id string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.running.Load() {
		return ErrRunning
	}
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("%w: component %q", ErrNotFound, id)
	}
	// Drop outgoing edges.
	for _, e := range n.out {
		e.to.inbound[e.port] = nil
	}
	n.out = nil
	// Drop incoming edges.
	for _, other := range g.nodes {
		if other == n {
			continue
		}
		kept := other.out[:0]
		for _, e := range other.out {
			if e.to != n {
				kept = append(kept, e)
			}
		}
		other.out = kept
	}
	delete(g.nodes, id)
	for i, oid := range g.order {
		if oid == id {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	g.producers = nil
	return nil
}

// InsertBetween splices a new component into an existing edge
// from -> to (at to's input port toPort): the edge is replaced by
// from -> c (input port cInPort) -> to. This is the §3.1 operation used
// to insert the satellite filter after the Parser.
func (g *Graph) InsertBetween(c Component, fromID, toID string, toPort, cInPort int) error {
	if _, err := g.Add(c); err != nil {
		return err
	}
	if err := g.Disconnect(fromID, toID, toPort); err != nil {
		rollbackErr := g.Remove(c.ID())
		return errors.Join(err, rollbackErr)
	}
	if err := g.Connect(fromID, c.ID(), cInPort); err != nil {
		return errors.Join(err, g.Connect(fromID, toID, toPort), g.Remove(c.ID()))
	}
	if err := g.Connect(c.ID(), toID, toPort); err != nil {
		return errors.Join(err,
			g.Disconnect(fromID, c.ID(), cInPort),
			g.Connect(fromID, toID, toPort),
			g.Remove(c.ID()))
	}
	return nil
}

// Observe registers an observer and returns a cancel function.
func (g *Graph) Observe(o Observer) (cancel func()) {
	g.obsMu.Lock()
	defer g.obsMu.Unlock()
	id := g.obsID
	g.obsID++
	g.obs[id] = o
	g.rebuildObserversLocked()
	return func() {
		g.obsMu.Lock()
		defer g.obsMu.Unlock()
		delete(g.obs, id)
		g.rebuildObserversLocked()
	}
}

// Tap registers fn for every emission in the graph.
func (g *Graph) Tap(fn TapFunc) (cancel func()) { return g.Observe(fn) }

// rebuildObserversLocked snapshots obs in registration order. Called
// with obsMu held.
func (g *Graph) rebuildObserversLocked() {
	if len(g.obs) == 0 {
		g.observing.Store(nil)
		return
	}
	l := &observerList{}
	for id := 0; id < g.obsID; id++ {
		o, ok := g.obs[id]
		if !ok {
			continue
		}
		l.all = append(l.all, o)
		if _, tap := o.(TapFunc); !tap {
			l.hooks = append(l.hooks, o)
		}
	}
	g.observing.Store(l)
}

// hooks returns the registered observers that gate or report.
func (g *Graph) hooks() []Observer {
	if l := g.observing.Load(); l != nil {
		return l.hooks
	}
	return nil
}

func (g *Graph) notifyTaps(componentID string, s Sample) {
	l := g.observing.Load()
	if l == nil {
		return
	}
	for _, o := range l.all {
		o.Tap(componentID, s)
	}
}

// maxGraphErrors bounds the error buffer: a persistently failing
// component in a long-running pipeline must not grow memory without
// bound. Overflow is summarised by drainErrors.
const maxGraphErrors = 256

func (g *Graph) noteError(err error) {
	g.errMu.Lock()
	defer g.errMu.Unlock()
	g.errPending.Store(true)
	if len(g.errs) >= maxGraphErrors {
		g.errDropped++
		return
	}
	g.errs = append(g.errs, err)
}

// drainErrors returns and clears errors collected during propagation.
// The common no-error case is a single atomic load so step loops do not
// contend on errMu.
func (g *Graph) drainErrors() error {
	if !g.errPending.Load() {
		return nil
	}
	g.errMu.Lock()
	defer g.errMu.Unlock()
	g.errPending.Store(false)
	if len(g.errs) == 0 && g.errDropped == 0 {
		return nil
	}
	errs := g.errs
	if g.errDropped > 0 {
		errs = append(errs, fmt.Errorf("core: %d further errors dropped (buffer capped at %d)",
			g.errDropped, maxGraphErrors))
	}
	err := errors.Join(errs...)
	g.errs = nil
	g.errDropped = 0
	return err
}

// Inject emits a sample through the named component's output port as if
// the component produced it, and synchronously propagates it through
// the graph. This drives emulator and sensor components in tests and
// deterministic experiment runs.
func (g *Graph) Inject(id string, s Sample) error {
	g.mu.RLock()
	n, ok := g.nodes[id]
	g.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: component %q", ErrNotFound, id)
	}
	n.emitLocked(s)
	return g.drainErrors()
}

// StepSource drives the named Producer component for one tick,
// propagating its emissions synchronously. It returns whether the
// producer has more data, and ErrRunning on a started graph.
func (g *Graph) StepSource(id string) (bool, error) {
	if g.started.Load() != nil {
		return false, ErrRunning
	}
	g.mu.RLock()
	n, ok := g.nodes[id]
	g.mu.RUnlock()
	if !ok {
		return false, fmt.Errorf("%w: component %q", ErrNotFound, id)
	}
	more, _ := n.step()
	return more, g.drainErrors()
}

// StepAll drives every Producer source once. It returns true while at
// least one producer reports more data, and ErrRunning on a started
// graph, whose source jobs step them.
func (g *Graph) StepAll() (bool, error) {
	if g.started.Load() != nil {
		return false, ErrRunning
	}
	any := false
	for _, n := range g.producerList() {
		if more, _ := n.step(); more {
			any = true
		}
	}
	return any, g.drainErrors()
}

// producerList returns the cached Producer source nodes, rebuilding the
// cache after structural changes. Saturated step loops call this every
// tick, so the steady state is one RLock and no allocation.
func (g *Graph) producerList() []*Node {
	g.mu.RLock()
	if ps := g.producers; ps != nil {
		g.mu.RUnlock()
		return ps
	}
	g.mu.RUnlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.producers == nil {
		ps := make([]*Node, 0, len(g.order))
		for _, id := range g.order {
			n := g.nodes[id]
			if n.prod != nil && n.spec.IsSource() {
				ps = append(ps, n)
			}
		}
		g.producers = ps
	}
	return g.producers
}

// Validate checks the graph's structural integrity and returns every
// problem found: unconnected input ports, components that cannot reach
// a sink (their output is produced and dropped), and the absence of any
// source or sink. A valid graph is a forest flowing from sensors to
// applications, as the paper's processing-tree model requires.
func (g *Graph) Validate() error {
	g.mu.RLock()
	defer g.mu.RUnlock()

	var errs []error
	if len(g.nodes) == 0 {
		return fmt.Errorf("%w: graph is empty", ErrInvalidSpec)
	}
	var haveSource, haveSink bool
	for _, id := range g.order {
		n := g.nodes[id]
		if n.spec.IsSource() {
			haveSource = true
		}
		if n.spec.IsSink() {
			haveSink = true
		}
		for port, up := range n.inbound {
			if up == nil {
				errs = append(errs, fmt.Errorf("%w: %q input port %d (%s) unconnected",
					ErrInvalidSpec, id, port, n.spec.Inputs[port].Name))
			}
		}
	}
	if !haveSource {
		errs = append(errs, fmt.Errorf("%w: no source component", ErrInvalidSpec))
	}
	if !haveSink {
		errs = append(errs, fmt.Errorf("%w: no sink component", ErrInvalidSpec))
	}
	// Reachability: every non-sink node must reach a sink along output
	// edges, or its data is silently discarded.
	for _, id := range g.order {
		n := g.nodes[id]
		if n.spec.IsSink() {
			continue
		}
		if !g.reachesSink(n, make(map[*Node]bool)) {
			errs = append(errs, fmt.Errorf("%w: %q cannot reach any sink", ErrInvalidSpec, id))
		}
	}
	return errors.Join(errs...)
}

// reachesSink reports whether a sink is reachable from n. Called with
// g.mu held.
func (g *Graph) reachesSink(n *Node, seen map[*Node]bool) bool {
	if n.spec.IsSink() {
		return true
	}
	if seen[n] {
		return false
	}
	seen[n] = true
	for _, e := range n.out {
		if g.reachesSink(e.to, seen) {
			return true
		}
	}
	return false
}

// Run drives all producer sources until every one is exhausted or
// maxTicks is reached (maxTicks <= 0 means unbounded). It returns the
// number of ticks executed, and ErrRunning on a started graph.
func (g *Graph) Run(maxTicks int) (int, error) {
	ticks := 0
	for {
		if maxTicks > 0 && ticks >= maxTicks {
			return ticks, nil
		}
		more, err := g.StepAll()
		if err != nil {
			return ticks, err
		}
		ticks++
		if !more {
			return ticks, nil
		}
	}
}
