// Package core implements the PerPos Process Structure Layer (PSL): the
// reified positioning process as a graph of Processing Components with
// single output ports and declared requirements/capabilities, Component
// Features that augment components (paper §2.1), logical-time stamping
// of every emission (the substrate for the Process Channel Layer's data
// trees, Fig. 4), and two engines over one node path: the deterministic
// synchronous StepAll/Run, and a started graph (Graph.Start), which
// gives each source its own periodic job (Every) and propagates
// emissions by the same direct call.
package core

import (
	"fmt"
	"time"
)

// Kind identifies the type of data carried by a Sample, e.g. "gps.raw",
// "nmea.sentence" or "position.wgs84". Components declare the kinds they
// accept and produce; connections are validated against them.
type Kind string

// Kinds used by the built-in PerPos processing components. Substrates
// define further kinds in their own packages.
const (
	// KindAny on an input port accepts every kind.
	KindAny Kind = "*"
)

// LogicalTime is a per-component logical clock value. Each component
// stamps its n-th emission with logical time n (starting at 1), which is
// what lets a Channel group intermediate data into the Fig. 4 data tree
// without wall-clock matching.
type LogicalTime uint64

// Span is an inclusive logical-time range [From, To] of samples from one
// upstream component that were consumed to produce an emission.
type Span struct {
	// Source is the ID of the upstream component whose clock the range
	// refers to.
	Source string `json:"source"`
	// From and To delimit the consumed logical times, inclusive.
	From LogicalTime `json:"from"`
	To   LogicalTime `json:"to"`
}

// String renders the span like the Fig. 4 tuples ("gps:1-2").
func (s Span) String() string {
	if s.From == s.To {
		return fmt.Sprintf("%s:%d", s.Source, s.From)
	}
	return fmt.Sprintf("%s:%d-%d", s.Source, s.From, s.To)
}

// Sample is the envelope for one datum flowing along a graph edge.
//
// Unlike the common-position-format middleware the paper criticises,
// technology-specific detail travels either as the typed Payload or as
// feature-attached Attrs, and is only propagated to consumers that ask
// for it.
type Sample struct {
	// Kind is the data type tag used for port matching.
	Kind Kind
	// Payload is the datum itself. Producers and consumers agree on the
	// concrete Go type per Kind.
	Payload any
	// Time is the (possibly simulated) wall-clock timestamp of the datum.
	Time time.Time
	// Source is the ID of the component that emitted the sample. Set by
	// the engine.
	Source string
	// Logical is the emitting component's logical clock value for this
	// emission. Set by the engine.
	Logical LogicalTime
	// Spans records, per upstream component, the logical-time ranges of
	// the inputs consumed to produce this sample (empty for sensors —
	// "N/A" in Fig. 4). Set by the engine.
	Spans []Span
	// FromFeature is the name of the Component Feature that emitted this
	// sample through its host's output port, or "" for data produced by
	// the component itself. Downstream ports receive feature-emitted data
	// only if they declare AcceptsFeatures for it (paper §2.1, "Adding
	// Data").
	FromFeature string
	// Attrs carries feature-attached key/value data that rides along
	// with the sample (e.g. "hdop" -> 1.2).
	Attrs map[string]any
}

// NewSample returns a sample of the given kind and payload stamped with
// time t. Engine-managed fields are left zero.
func NewSample(kind Kind, payload any, t time.Time) Sample {
	return Sample{Kind: kind, Payload: payload, Time: t}
}

// WithAttr returns a copy of the sample with attribute key set to value.
// The attribute map is copied so siblings are not aliased.
func (s Sample) WithAttr(key string, value any) Sample {
	attrs := make(map[string]any, len(s.Attrs)+1)
	for k, v := range s.Attrs {
		attrs[k] = v
	}
	attrs[key] = value
	s.Attrs = attrs
	return s
}

// Attr returns the named attribute and whether it is present.
func (s Sample) Attr(key string) (any, bool) {
	v, ok := s.Attrs[key]
	return v, ok
}

// FloatAttr returns the named attribute as a float64. It handles the
// numeric types commonly attached by features; ok is false when the
// attribute is missing or non-numeric.
func (s Sample) FloatAttr(key string) (float64, bool) {
	v, present := s.Attrs[key]
	if !present {
		return 0, false
	}
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	default:
		return 0, false
	}
}

// IntAttr returns the named attribute as an int; ok is false when the
// attribute is missing or non-integral.
func (s Sample) IntAttr(key string) (int, bool) {
	v, present := s.Attrs[key]
	if !present {
		return 0, false
	}
	switch n := v.(type) {
	case int:
		return n, true
	case int64:
		return int(n), true
	case float64:
		return int(n), true
	default:
		return 0, false
	}
}

// String renders the sample in the Fig. 4 tuple style:
// "kind@source:3 spans=[parser:1-2]".
func (s Sample) String() string {
	if len(s.Spans) == 0 {
		return fmt.Sprintf("%s@%s:%d", s.Kind, s.Source, s.Logical)
	}
	return fmt.Sprintf("%s@%s:%d spans=%v", s.Kind, s.Source, s.Logical, s.Spans)
}
