package obs

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"perpos/internal/core"
)

// GraphObserver is a core.Observer recording into a Metrics hub:
// emission counts, error/panic/restart accounting, sampled process
// latency and gate refusals. It wraps an optional inner observer — in
// practice the session's health.Monitor, whose Allow is the gate — so
// one registration serves both supervision and metrics.
//
// Emissions are counted into the observer's own cells, one per node,
// so a saturated session writes no cache line another session writes.
// The hub sums the cells when it is read; Close folds them into the
// hub once the observed graph has emitted for the last time.
type GraphObserver struct {
	m     *Metrics
	inner core.Observer

	// cells is copy-on-write: Tap scans the current slice without a
	// lock, and a node's first emission appends under mu.
	cells atomic.Pointer[[]*emissionCell]
	mu    sync.Mutex
}

// emissionCell counts one node's emissions for one observer. It fills
// a 64-byte cache line, so cells counted on different cores never
// share one.
type emissionCell struct {
	n  Counter
	id string
	_  [40]byte
}

var _ core.Observer = (*GraphObserver)(nil)

// NewGraphObserver wraps inner (which may be nil) with metric
// recording into m. The hub reads the observer's emission counts until
// Close.
func NewGraphObserver(m *Metrics, inner core.Observer) *GraphObserver {
	o := &GraphObserver{m: m, inner: inner}
	m.obsMu.Lock()
	m.observers[o] = struct{}{}
	m.obsMu.Unlock()
	return o
}

// Tap implements core.Observer, counting the emission in the node's
// cell.
func (o *GraphObserver) Tap(componentID string, s core.Sample) {
	o.cell(componentID).n.Inc()
	if o.inner != nil {
		o.inner.Tap(componentID, s)
	}
}

// loadCells returns the current cells (none before the first Tap).
func (o *GraphObserver) loadCells() []*emissionCell {
	if p := o.cells.Load(); p != nil {
		return *p
	}
	return nil
}

// cell returns the node's emission cell, adding one on the node's
// first emission.
func (o *GraphObserver) cell(id string) *emissionCell {
	for _, c := range o.loadCells() {
		if c.id == id {
			return c
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	cells := o.loadCells()
	for _, c := range cells {
		if c.id == id {
			return c
		}
	}
	o.m.Node(id) // the hub lists a node from its first emission
	c := &emissionCell{id: id}
	// A full slice expression makes append copy: readers may still
	// hold the old slice.
	next := append(cells[:len(cells):len(cells)], c)
	o.cells.Store(&next)
	return c
}

// Close folds the observer's emission counts into the hub and drops
// its cells from the hub's reads. Call it after the observed graph's
// last emission: later Taps are not counted. Idempotent.
func (o *GraphObserver) Close() {
	o.m.obsMu.Lock()
	defer o.m.obsMu.Unlock()
	if _, live := o.m.observers[o]; !live {
		return
	}
	delete(o.m.observers, o)
	for _, c := range o.loadCells() {
		o.m.Node(c.id).emissions.Add(c.n.Value())
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
