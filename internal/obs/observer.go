package obs

import (
	"errors"
	"time"

	"perpos/internal/core"
)

// GraphObserver is a core.Observer recording into a Metrics hub:
// emission counts, error/panic/restart accounting, sampled process
// latency and gate refusals. It wraps an optional inner observer — in
// practice the session's health.Monitor, whose Allow is the gate — so
// one registration serves both supervision and metrics.
type GraphObserver struct {
	m     *Metrics
	inner core.Observer
}

var _ core.Observer = (*GraphObserver)(nil)

// NewGraphObserver wraps inner (which may be nil) with metric
// recording into m.
func NewGraphObserver(m *Metrics, inner core.Observer) *GraphObserver {
	return &GraphObserver{m: m, inner: inner}
}

// Tap implements core.Observer, counting every emission globally and
// per node.
func (o *GraphObserver) Tap(componentID string, s core.Sample) {
	o.m.SpansEmitted.Inc()
	o.m.Node(componentID).Emissions.Inc()
	if o.inner != nil {
		o.inner.Tap(componentID, s)
	}
}

// Allow implements core.Observer: the inner observer (the breaker)
// decides; refusals are counted as dropped spans.
func (o *GraphObserver) Allow(nodeID string) bool {
	if o.inner == nil || o.inner.Allow(nodeID) {
		return true
	}
	o.m.SpansDropped.Inc()
	o.m.Node(nodeID).Drops.Inc()
	return false
}

// Done implements core.Observer: timed calls feed the node's
// ProcessNs, failures its error and panic counters.
func (o *GraphObserver) Done(nodeID string, d time.Duration, err error) {
	if d > 0 || err != nil {
		nm := o.m.Node(nodeID)
		if d > 0 {
			nm.ProcessNs.ObserveDuration(d)
		}
		if err != nil {
			nm.Errors.Inc()
			if errors.Is(err, core.ErrPanicked) {
				nm.Panics.Inc()
			}
		}
	}
	if o.inner != nil {
		o.inner.Done(nodeID, d, err)
	}
}

// Restarted implements core.Observer.
func (o *GraphObserver) Restarted(nodeID string, attempt int) {
	o.m.Node(nodeID).Restarts.Inc()
	if o.inner != nil {
		o.inner.Restarted(nodeID, attempt)
	}
}
