package obs

import (
	"fmt"
	"strings"
	"time"

	"perpos/internal/channel"
	"perpos/internal/core"
)

// Tracing reuses the PSL's logical-time machinery as the span tree:
// every instrumented component stamps each emission with a SpanRecord
// (node, logical clock, wall enter/exit) carried in the sample's
// Attrs, and the PCL data tree — which already groups, by logical
// time, every intermediate datum that contributed to a channel output
// (Fig. 4) — IS the end-to-end trace of that output. No separate trace
// store, no ID propagation: the causality the middleware maintains for
// translucency doubles as the trace graph.

// TraceAttr is the sample attribute key carrying a SpanRecord.
const TraceAttr = "obs.span"

// TraceFeatureName is the Component Feature name of TraceFeature.
const TraceFeatureName = "obs.trace"

// SpanRecord is one component's processing span for one emission.
type SpanRecord struct {
	// Node is the emitting component.
	Node string `json:"node"`
	// Logical is the emission's logical clock value on that component.
	Logical core.LogicalTime `json:"logical"`
	// Enter is when the component began consuming the inputs that led
	// to this emission (for sources: equal to Exit).
	Enter time.Time `json:"enter"`
	// Exit is when the emission left the component.
	Exit time.Time `json:"exit"`
}

// Duration is the wall-clock span length.
func (r SpanRecord) Duration() time.Duration { return r.Exit.Sub(r.Enter) }

// TraceOf extracts the span record stamped on a sample.
func TraceOf(s core.Sample) (SpanRecord, bool) {
	v, ok := s.Attr(TraceAttr)
	if !ok {
		return SpanRecord{}, false
	}
	r, ok := v.(SpanRecord)
	return r, ok
}

// TraceFeature is the Trace Component Feature: a ConsumeHook records
// when input began arriving, a ProduceHook stamps each emission with
// the resulting SpanRecord. One instance per node (Bind captures the
// host); attach via InstrumentGraph.
//
// The logical time stamped is host.Clock()+1: produce hooks run just
// before the engine increments the clock and stamps the sample, so the
// emission flowing through the hook is exactly the next clock value.
type TraceFeature struct {
	now   func() time.Time
	host  core.ClockedHost
	enter time.Time
}

// TraceOption configures a TraceFeature.
type TraceOption func(*TraceFeature)

// NewTraceFeature returns an unbound trace feature.
func NewTraceFeature(opts ...TraceOption) *TraceFeature {
	f := &TraceFeature{now: time.Now}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

var (
	_ core.ConsumeHook     = (*TraceFeature)(nil)
	_ core.ProduceHook     = (*TraceFeature)(nil)
	_ core.BindableFeature = (*TraceFeature)(nil)
)

// FeatureName implements core.Feature.
func (f *TraceFeature) FeatureName() string { return TraceFeatureName }

// Bind implements core.BindableFeature.
func (f *TraceFeature) Bind(host core.FeatureHost) {
	if ch, ok := host.(core.ClockedHost); ok {
		f.host = ch
	}
}

// Consume implements core.ConsumeHook: the first input after an
// emission opens the wall-clock window (merge components consume
// several inputs per output; the window spans them all).
func (f *TraceFeature) Consume(_ int, in core.Sample) (core.Sample, bool) {
	if f.enter.IsZero() {
		f.enter = f.now()
	}
	return in, true
}

// Produce implements core.ProduceHook: stamp and close the window.
func (f *TraceFeature) Produce(out core.Sample) (core.Sample, bool) {
	exit := f.now()
	enter := f.enter
	if enter.IsZero() {
		enter = exit // source: no consume side
	}
	rec := SpanRecord{Exit: exit, Enter: enter}
	if f.host != nil {
		rec.Node = f.host.Component().ID()
		rec.Logical = f.host.Clock() + 1
	}
	f.enter = time.Time{}
	return out.WithAttr(TraceAttr, rec), true
}

// InstrumentGraph attaches a TraceFeature to every node that does not
// already carry one. Attach while the graph is quiescent (features are
// graph structure).
func InstrumentGraph(g *core.Graph, opts ...TraceOption) error {
	for _, n := range g.Nodes() {
		if n.HasCapability(TraceFeatureName) {
			continue
		}
		if err := n.AttachFeature(NewTraceFeature(opts...)); err != nil {
			return err
		}
	}
	return nil
}

// FormatTrace renders a data tree as an indented end-to-end trace, one
// line per datum: component, logical time, kind, and — when the sample
// was stamped by a TraceFeature — the wall-clock processing span. The
// last line totals the root's exit minus the earliest stamped enter:
// "where did this position spend its time".
func FormatTrace(t *channel.DataTree) string {
	if t == nil || t.Root == nil {
		return "(no delivery recorded)\n"
	}
	var b strings.Builder
	var earliest, rootExit time.Time
	var rec func(n *channel.TreeNode, depth int)
	rec = func(n *channel.TreeNode, depth int) {
		s := n.Sample
		fmt.Fprintf(&b, "%s%s logical=%d kind=%s", strings.Repeat("  ", depth), s.Source, s.Logical, s.Kind)
		if r, ok := TraceOf(s); ok {
			fmt.Fprintf(&b, " process=%s", r.Duration().Round(time.Microsecond))
			if earliest.IsZero() || r.Enter.Before(earliest) {
				earliest = r.Enter
			}
			if depth == 0 {
				rootExit = r.Exit
			}
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
	if !earliest.IsZero() && !rootExit.IsZero() {
		fmt.Fprintf(&b, "end-to-end: %s\n", rootExit.Sub(earliest).Round(time.Microsecond))
	}
	return b.String()
}
