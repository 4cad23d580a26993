package core

// PortSpec declares what one input port of a Processing Component
// requires. Connections are validated against it (paper §2.1: "To make
// sure that port connections are realizable Processing Components must
// declare requirements for input ports").
type PortSpec struct {
	// Name is a human-readable port label ("gps", "wifi", ...).
	Name string
	// Accepts lists the kinds the port consumes. KindAny accepts all.
	Accepts []Kind
	// RequiresFeatures lists Component Feature names that must be
	// provided by the upstream component's output capabilities (paper:
	// "input requirements of Processing Components also include a
	// listing of any Component Feature that the component is dependent
	// upon").
	RequiresFeatures []string
	// AcceptsFeatures lists feature names whose feature-emitted samples
	// this port is willing to receive. Feature-added data is only
	// propagated to ports that declare it (paper §2.1, "Adding Data").
	AcceptsFeatures []string
}

// accepts reports whether the port accepts samples of kind k.
func (p PortSpec) accepts(k Kind) bool {
	for _, a := range p.Accepts {
		if a == KindAny || a == k {
			return true
		}
	}
	return false
}

// acceptsFeature reports whether the port receives samples emitted by
// the named Component Feature.
func (p PortSpec) acceptsFeature(name string) bool {
	for _, f := range p.AcceptsFeatures {
		if f == name {
			return true
		}
	}
	return false
}

// OutputSpec declares the capabilities of a component's single output
// port.
type OutputSpec struct {
	// Kind is the kind of data the component itself produces.
	Kind Kind
	// Features lists Component Feature names natively provided by the
	// component. Attached features extend this set at runtime; use
	// Node.Capabilities for the effective value.
	Features []string
}

// Spec describes a Processing Component: its type name, input ports and
// output capabilities. A component with no inputs is a data source; the
// sink (application root) has no output kind.
type Spec struct {
	// Name is the component type name ("Parser", "ParticleFilter").
	Name string
	// Inputs describes the input ports, in port-index order.
	Inputs []PortSpec
	// Output describes the single output port. Components with
	// Output.Kind == "" are sinks.
	Output OutputSpec
}

// IsSource reports whether the spec describes a data source (no inputs).
func (s Spec) IsSource() bool { return len(s.Inputs) == 0 }

// IsSink reports whether the spec describes a terminal component.
func (s Spec) IsSink() bool { return s.Output.Kind == "" }

// IsMerge reports whether the spec merges multiple data sources — the
// components that remain visible at the Process Channel Layer.
func (s Spec) IsMerge() bool { return len(s.Inputs) >= 2 }

// Emit delivers samples produced by a component into the graph. The
// engine passes an Emit to Process and Step implementations; emissions
// are stamped, run through Produce feature hooks and propagated.
type Emit func(Sample)

// Component is a Processing Component: a node in the reified positioning
// process. Implementations must be safe for use by a single engine
// goroutine; they do not need internal locking.
type Component interface {
	// ID returns the unique component instance identifier used in graph
	// manipulation and in Span.Source references.
	ID() string
	// Spec returns the component's declared ports and capabilities. It
	// must be constant over the component's lifetime.
	Spec() Spec
	// Process handles one input sample arriving on the given port and
	// emits zero or more output samples. Sinks receive port/sample and
	// emit nothing.
	Process(port int, in Sample, emit Emit) error
}

// Producer is implemented by source components that generate data when
// the engine drives them (sensors, emulators). Step produces the samples
// for one tick; returning false indicates the source is exhausted (e.g.
// a trace replay reached EOF).
type Producer interface {
	Component
	Step(emit Emit) (more bool, err error)
}

// Feature is a Component Feature: a small code module hooked into a
// component (paper §2.1). A bare Feature only adds state-access
// functionality — callers obtain it via Node.Feature(name) and
// type-assert to a richer interface (the Fig. 5
// component.getFeature(HDOP.class) pattern). The optional hook
// interfaces below augment data flow.
type Feature interface {
	// FeatureName returns the unique name under which the feature is
	// attached and advertised in output capabilities.
	FeatureName() string
}

// ConsumeHook is implemented by features that intercept data flowing
// into their host component ("data can be manipulated when flowing into
// ... the component"). The returned sample replaces the input; returning
// keep=false drops the sample before it reaches the component.
type ConsumeHook interface {
	Feature
	Consume(port int, in Sample) (out Sample, keep bool)
}

// ProduceHook is implemented by features that intercept data flowing out
// of their host component. The returned sample replaces the emission;
// returning keep=false suppresses it. Hooks must not change the sample's
// Kind ("this type of extension cannot change the data type of the data
// produced") — the engine enforces this.
type ProduceHook interface {
	Feature
	Produce(out Sample) (modified Sample, keep bool)
}

// FeatureHost is the engine-provided handle a feature uses to interact
// with its host component. It is passed to Bind when the feature is
// attached.
type FeatureHost interface {
	// Component returns the host component, for state inspection and
	// manipulation.
	Component() Component
	// EmitFeatureData propagates a sample through the host's output port
	// as if produced by the component itself (paper: "A Component
	// Feature can call the method produce(data) on the component to
	// which it is attached"). The engine stamps the sample and marks it
	// as originating from this feature; downstream ports receive it only
	// if they declare AcceptsFeatures for this feature's name. It is
	// only valid during the host's processing of a sample or step.
	EmitFeatureData(s Sample)
}

// BindableFeature is implemented by features that need the host handle.
// Bind is called once when the feature is attached, before any hook.
type BindableFeature interface {
	Feature
	Bind(host FeatureHost)
}

// ClockedHost is an optional FeatureHost extension exposing the host
// node's logical clock. A feature observing an emission from inside a
// ProduceHook sees the clock BEFORE the engine stamps the sample, so
// the emission being produced will carry Clock()+1 — the contract a
// tracing feature relies on to stamp spans with the right logical time.
type ClockedHost interface {
	FeatureHost
	Clock() LogicalTime
}
