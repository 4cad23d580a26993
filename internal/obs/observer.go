package obs

import (
	"errors"
	"time"

	"perpos/internal/core"
)

// GraphObserver adapts a Metrics hub to every engine seam at once: it
// is a core.RunnerObserver (error/panic/restart accounting), a
// core.NodeTimer (process-latency histograms), a core.DeliveryGate
// (counting quarantine drops) and, via Tap, a core.TapFunc (emission
// counting). It wraps an optional inner observer — in practice the
// session's health.Monitor — so one WithRunnerObserver slot serves
// both supervision and metrics.
type GraphObserver struct {
	m     *Metrics
	inner core.RunnerObserver
	gate  core.DeliveryGate
}

var (
	_ core.RunnerObserver = (*GraphObserver)(nil)
	_ core.DeliveryGate   = (*GraphObserver)(nil)
	_ core.NodeTimer      = (*GraphObserver)(nil)
)

// NewGraphObserver wraps inner (which may be nil) with metric
// recording into m.
func NewGraphObserver(m *Metrics, inner core.RunnerObserver) *GraphObserver {
	o := &GraphObserver{m: m, inner: inner}
	if inner != nil {
		if g, ok := inner.(core.DeliveryGate); ok {
			o.gate = g
		}
	}
	return o
}

// NodeResult implements core.RunnerObserver.
func (o *GraphObserver) NodeResult(nodeID string, err error) {
	if err != nil {
		nm := o.m.Node(nodeID)
		nm.Errors.Inc()
		if errors.Is(err, core.ErrPanicked) {
			nm.Panics.Inc()
		}
	}
	if o.inner != nil {
		o.inner.NodeResult(nodeID, err)
	}
}

// SourceExhausted implements core.RunnerObserver.
func (o *GraphObserver) SourceExhausted(nodeID string) {
	if o.inner != nil {
		o.inner.SourceExhausted(nodeID)
	}
}

// SourceRestarted implements core.RunnerObserver.
func (o *GraphObserver) SourceRestarted(nodeID string, attempt int) {
	o.m.Node(nodeID).Restarts.Inc()
	if o.inner != nil {
		o.inner.SourceRestarted(nodeID, attempt)
	}
}

// NodeTimed implements core.NodeTimer.
func (o *GraphObserver) NodeTimed(nodeID string, d time.Duration, _ error) {
	o.m.Node(nodeID).ProcessNs.ObserveDuration(d)
}

// Allow implements core.DeliveryGate: the inner gate (the breaker)
// decides; refusals are counted as dropped spans.
func (o *GraphObserver) Allow(nodeID string) bool {
	if o.gate == nil || o.gate.Allow(nodeID) {
		return true
	}
	o.m.SpansDropped.Inc()
	o.m.Node(nodeID).Drops.Inc()
	return false
}

// Tap is a core.TapFunc counting every emission globally and per node.
// It fires on both the sync and async propagation paths — unlike the
// runner-fed hooks above, which only see async traffic.
func (o *GraphObserver) Tap(componentID string, _ core.Sample) {
	o.m.SpansEmitted.Inc()
	o.m.Node(componentID).Emissions.Inc()
}
