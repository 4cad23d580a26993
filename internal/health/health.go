// Package health makes pipelines self-healing: per-node health
// tracking (error/panic rates and a last-output watchdog, fed through
// the graph's core.Observer seam on either engine), a circuit breaker
// that quarantines a persistently failing node, and a Supervisor that
// reacts to breaker transitions with the paper's own adaptation
// machinery — PSL graph manipulation that degrades a fused pipeline to
// its surviving branch and restores the full graph on recovery.
//
// The node state machine:
//
//	          consecutive errors >= MaxConsecutiveErrors
//	          or silence > the node's deadline (Policy.Deadlines)
//	Healthy ────────────────────────────────────────────▶ Down
//	   ▲                                                   │
//	   └───────────────────────────────────────────────────┘
//	          RecoveryEmissions outputs observed
//	          and the error streak broken
//
// While Down, the breaker quarantines the node (Monitor.Allow drops its
// deliveries, whichever engine drives the graph) except for a
// half-open probe admitted every ProbeInterval — the sample that lets
// a recovered component prove itself. Sources are not gated; a dead
// source is restarted by its started graph with exponential backoff,
// without a give-up, instead.
package health

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perpos/internal/core"
)

// State is a node's breaker state.
type State int

const (
	// StateHealthy: the node processes and emits normally.
	StateHealthy State = iota
	// StateDown: the breaker is open — the node is quarantined and a
	// degradation reroute (if configured) is engaged.
	StateDown
)

// String renders the state.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDown:
		return "down"
	default:
		return "unknown"
	}
}

// Event is one node transition observed by the monitor.
type Event struct {
	// Node is the component ID.
	Node string
	// Up is true for Down→Healthy, false for Healthy→Down.
	Up bool
	// Reason explains the transition ("errors", "silence", "recovered",
	// "reroute-failed", "restore-failed").
	Reason string
	// Err carries the triggering error, when there is one.
	Err error
	// At is the transition time (monitor clock).
	At time.Time
}

// Policy tunes supervision. The zero value enables error-rate breaking
// with defaults and no watchdog.
type Policy struct {
	// MaxConsecutiveErrors trips a node's breaker (default 3).
	MaxConsecutiveErrors int
	// Deadlines sets the last-output watchdog deadline per node; a
	// node without one is never deadline-tripped. A node is only held
	// to its deadline after its first observed output, so cold starts
	// (GPS acquisition) don't false-trip.
	Deadlines map[string]time.Duration
	// RecoveryEmissions is how many outputs a Down node must produce
	// before the breaker closes again (default 1).
	RecoveryEmissions int
	// ProbeInterval paces half-open probes to quarantined non-source
	// nodes (default 500ms).
	ProbeInterval time.Duration
	// Sweep is the supervisor's evaluation period (default 50ms).
	Sweep time.Duration
	// Restart is the started graph's backoff policy for Restartable
	// sources.
	Restart core.RestartPolicy
}

func (p Policy) withDefaults() Policy {
	if p.MaxConsecutiveErrors <= 0 {
		p.MaxConsecutiveErrors = 3
	}
	if p.RecoveryEmissions <= 0 {
		p.RecoveryEmissions = 1
	}
	if p.ProbeInterval <= 0 {
		p.ProbeInterval = 500 * time.Millisecond
	}
	if p.Sweep <= 0 {
		p.Sweep = 50 * time.Millisecond
	}
	return p
}

// NodeHealth is the externally visible health snapshot of one node.
type NodeHealth struct {
	Node              string
	State             State
	Errors            uint64
	Panics            uint64
	Restarts          uint64
	ConsecutiveErrors int
	// LastOutput is when the monitor last found new outputs of the
	// node: the time of the sweep (Advance) or read (Health, Snapshot)
	// that first counted them, so it trails the emission itself by at
	// most one sweep period.
	LastOutput time.Time
	DownSince  time.Time
	Trips      uint64
}

// nodeState is the monitor's mutable per-node record.
type nodeState struct {
	NodeHealth
	hasOutput     bool
	emitted       int       // outputs tapped since the last fold
	emissionsDown int       // outputs observed since the breaker opened
	lastProbe     time.Time // last half-open probe admitted while Down
	lastErr       error
}

// fold moves the outputs tapped since the last fold into the record:
// LastOutput takes the fold's time, and outputs tapped while the
// breaker was open count toward recovery. The breaker changes state
// only in Advance, which folds first, so every output of one fold was
// tapped under the state the record holds now. Called with the
// monitor's lock held.
func (st *nodeState) fold(now time.Time) {
	if st.emitted == 0 {
		return
	}
	if st.State == StateDown {
		st.emissionsDown += st.emitted
	}
	st.emitted = 0
	st.LastOutput = now
	st.hasOutput = true
}

// Monitor tracks per-node health. It is a core.Observer: Done feeds
// error/panic accounting, Allow is the quarantine, Tap counts outputs
// for the last-output watchdog and recovery. Records appear on a
// node's first emission or error. All methods are safe for concurrent
// use.
type Monitor struct {
	mu     sync.Mutex
	policy Policy
	clock  func() time.Time
	nodes  map[string]*nodeState
	// down counts open breakers and streaks nodes with an error
	// streak, so Allow and a successful Done take no lock while both
	// are zero.
	down, streaks atomic.Int32
}

var _ core.Observer = (*Monitor)(nil)

// MonitorOption configures a Monitor.
type MonitorOption func(*Monitor)

// withClock substitutes the monitor clock (tests).
func withClock(now func() time.Time) MonitorOption {
	return func(m *Monitor) {
		if now != nil {
			m.clock = now
		}
	}
}

// NewMonitor returns a monitor for the given policy.
func NewMonitor(policy Policy, opts ...MonitorOption) *Monitor {
	m := &Monitor{
		policy: policy.withDefaults(),
		clock:  time.Now,
		nodes:  make(map[string]*nodeState),
	}
	for _, opt := range opts {
		opt(m)
	}
	for node := range m.policy.Deadlines {
		m.Watch(node)
	}
	return m
}

// Policy returns the effective (defaulted) policy.
func (m *Monitor) Policy() Policy { return m.policy }

// Watch registers a node ahead of traffic, so Health and Snapshot
// report it before its first emission or error. Other nodes are
// tracked lazily, from their first emission or error on.
func (m *Monitor) Watch(node string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodeLocked(node)
}

// nodeLocked returns (creating on demand) the node's record.
func (m *Monitor) nodeLocked(node string) *nodeState {
	st, ok := m.nodes[node]
	if !ok {
		st = &nodeState{NodeHealth: NodeHealth{Node: node}}
		m.nodes[node] = st
	}
	return st
}

// Done implements core.Observer.
func (m *Monitor) Done(node string, _ time.Duration, err error) {
	if err == nil && m.streaks.Load() == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		if st, ok := m.nodes[node]; ok && st.ConsecutiveErrors > 0 {
			st.ConsecutiveErrors = 0
			st.lastErr = nil
			m.streaks.Add(-1)
		}
		return
	}
	st := m.nodeLocked(node)
	st.Errors++
	if st.ConsecutiveErrors == 0 {
		m.streaks.Add(1)
	}
	st.ConsecutiveErrors++
	st.lastErr = err
	if errors.Is(err, core.ErrPanicked) {
		st.Panics++
	}
}

// Restarted implements core.Observer.
func (m *Monitor) Restarted(node string, _ int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodeLocked(node).Restarts++
}

// Tap implements core.Observer: every emission anywhere in the graph
// counts one output of the emitting node. It reads no clock: the next
// Advance, Health or Snapshot folds the count into LastOutput and the
// recovery count, so silence is still judged once per sweep.
func (m *Monitor) Tap(node string, _ core.Sample) {
	m.mu.Lock()
	m.nodeLocked(node).emitted++
	m.mu.Unlock()
}

// Allow implements core.Observer: quarantined nodes receive no
// traffic except a half-open probe every ProbeInterval.
func (m *Monitor) Allow(node string) bool {
	if m.down.Load() == 0 {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.nodes[node]
	if !ok || st.State != StateDown {
		return true
	}
	now := m.clock()
	if now.Sub(st.lastProbe) >= m.policy.ProbeInterval {
		st.lastProbe = now
		return true
	}
	return false
}

// Advance evaluates every node's breaker at the given time and returns
// the transitions that occurred, in node order. The supervisor calls
// this from its sweep loop; tests can drive it directly.
func (m *Monitor) Advance(now time.Time) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var events []Event
	for _, st := range m.nodes {
		st.fold(now)
		switch st.State {
		case StateHealthy:
			if st.ConsecutiveErrors >= m.policy.MaxConsecutiveErrors {
				events = append(events, m.tripLocked(st, now, "errors"))
				continue
			}
			if d := m.policy.Deadlines[st.Node]; d > 0 && st.hasOutput && now.Sub(st.LastOutput) > d {
				events = append(events, m.tripLocked(st, now, "silence"))
			}
		case StateDown:
			if st.emissionsDown >= m.policy.RecoveryEmissions && st.ConsecutiveErrors == 0 {
				st.State = StateHealthy
				m.down.Add(-1)
				st.DownSince = time.Time{}
				st.emissionsDown = 0
				events = append(events, Event{Node: st.Node, Up: true, Reason: "recovered", At: now})
			}
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Node < events[j].Node })
	return events
}

// tripLocked opens a node's breaker. Called with m.mu held.
func (m *Monitor) tripLocked(st *nodeState, now time.Time, reason string) Event {
	st.State = StateDown
	m.down.Add(1)
	st.DownSince = now
	st.emissionsDown = 0
	st.lastProbe = now // first probe waits a full interval
	st.Trips++
	return Event{Node: st.Node, Up: false, Reason: reason, Err: st.lastErr, At: now}
}

// Health returns the node's current health snapshot.
func (m *Monitor) Health(node string) (NodeHealth, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.nodes[node]
	if !ok {
		return NodeHealth{}, false
	}
	if st.emitted > 0 {
		st.fold(m.clock())
	}
	return st.NodeHealth, true
}

// Snapshot returns every tracked node's health, sorted by node ID.
func (m *Monitor) Snapshot() []NodeHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock()
	out := make([]NodeHealth, 0, len(m.nodes))
	for _, st := range m.nodes {
		st.fold(now)
		out = append(out, st.NodeHealth)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// AnyDown reports whether any tracked node's breaker is open.
func (m *Monitor) AnyDown() bool { return m.down.Load() > 0 }
