// Package chaos provides composable fault-injecting wrappers for
// Processing Components, so failure paths become first-class, testable
// scenarios instead of incidents. A wrapper preserves the inner
// component's ID and Spec — the graph wiring is unchanged — and injects
// faults on the way through: corrupted payloads, returned errors, and
// scripted outages (Kill/Heal). Probabilistic corruption draws from a
// PRNG with a fixed seed, so a chaos scenario replays identically
// run-to-run.
//
// The wrappers compose with the supervision machinery in
// internal/health: a killed source trips the started graph's
// restart-with-backoff path, the watchdog notices the silence, and the supervisor
// degrades the pipeline — all exercised deterministically in tests.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"perpos/internal/core"
)

// ErrDown is the error surfaced by a wrapper whose injector is in the
// down state (killed). Matched with errors.Is.
var ErrDown = errors.New("chaos: injected outage")

// Option configures an injector.
type Option func(*injector)

// WithCorrupt rewrites each sample with probability p using fn — bit
// rot, unit mix-ups, garbage payloads. fn must not change the sample's
// Kind if downstream port matching is to keep working.
func WithCorrupt(p float64, fn func(core.Sample) core.Sample) Option {
	return func(in *injector) { in.corruptP, in.corrupt = p, fn }
}

// WithErrorEvery makes every nth operation return an injected error: a
// component that fails transiently without dying.
func WithErrorEvery(n int) Option {
	return func(in *injector) { in.errEvery = n }
}

// injector holds the fault configuration and the mutable fault state
// shared by a wrapper's operations. Safe for concurrent use (the async
// engine drives components from several goroutines).
type injector struct {
	mu  sync.Mutex
	rng *rand.Rand

	corruptP float64
	corrupt  func(core.Sample) core.Sample
	errEvery int

	ops     int
	killed  bool
	downErr error
}

func newInjector(opts []Option) *injector {
	in := &injector{rng: rand.New(rand.NewSource(1))}
	for _, opt := range opts {
		opt(in)
	}
	return in
}

// admit runs the pre-operation faults for one sample. It returns the
// (possibly corrupted) sample, or an error to surface instead.
func (in *injector) admit(s core.Sample) (core.Sample, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops++
	if in.killed {
		return s, in.downErrLocked()
	}
	if in.errEvery > 0 && in.ops%in.errEvery == 0 {
		return s, fmt.Errorf("chaos: injected error (op %d)", in.ops)
	}
	return in.corruptLocked(s), nil
}

// corruptLocked applies the corruption fault to s. Called with in.mu
// held.
func (in *injector) corruptLocked(s core.Sample) core.Sample {
	if in.corrupt != nil && in.corruptP > 0 && in.rng.Float64() < in.corruptP {
		s = in.corrupt(s)
	}
	return s
}

func (in *injector) downErrLocked() error {
	if in.downErr != nil {
		return in.downErr
	}
	return ErrDown
}

func (in *injector) kill(err error) {
	in.mu.Lock()
	in.killed, in.downErr = true, err
	in.mu.Unlock()
}

func (in *injector) heal() {
	in.mu.Lock()
	in.killed, in.downErr = false, nil
	in.mu.Unlock()
}

func (in *injector) down() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.killed
}

// Component wraps a non-source Processing Component with fault
// injection on its input path.
type Component struct {
	inner core.Component
	inj   *injector
}

var _ core.Component = (*Component)(nil)

// WrapComponent returns a fault-injecting wrapper around c. The
// wrapper's ID and Spec are the inner component's, so it slots into
// any wiring that expected c.
func WrapComponent(c core.Component, opts ...Option) *Component {
	return &Component{inner: c, inj: newInjector(opts)}
}

// ID implements core.Component.
func (c *Component) ID() string { return c.inner.ID() }

// Spec implements core.Component.
func (c *Component) Spec() core.Spec { return c.inner.Spec() }

// Kill forces the component down: every Process returns err (ErrDown
// when nil) until Heal.
func (c *Component) Kill(err error) { c.inj.kill(err) }

// Heal clears a Kill.
func (c *Component) Heal() { c.inj.heal() }

// Process implements core.Component with the injector's faults applied
// to the inbound sample.
func (c *Component) Process(port int, in core.Sample, emit core.Emit) error {
	s, err := c.inj.admit(in)
	if err != nil {
		return err
	}
	return c.inner.Process(port, s, emit)
}

// Source wraps a Producer with fault injection on its Step path. A
// down Source dies (Step returns more=false with the outage error),
// which is exactly the shape a started graph's restart-with-backoff
// path recovers from: Source implements core.Restartable, and Restart
// succeeds once the outage clears.
type Source struct {
	inner core.Producer
	inj   *injector
}

var (
	_ core.Producer    = (*Source)(nil)
	_ core.Restartable = (*Source)(nil)
)

// WrapSource returns a fault-injecting wrapper around p.
func WrapSource(p core.Producer, opts ...Option) *Source {
	return &Source{inner: p, inj: newInjector(opts)}
}

// ID implements core.Component.
func (s *Source) ID() string { return s.inner.ID() }

// Spec implements core.Component.
func (s *Source) Spec() core.Spec { return s.inner.Spec() }

// Kill forces the source down: the next Step dies with err (ErrDown
// when nil) and Restart keeps failing until Heal.
func (s *Source) Kill(err error) { s.inj.kill(err) }

// Heal clears a Kill; a pending Restart then succeeds.
func (s *Source) Heal() { s.inj.heal() }

// Process implements core.Component; sources receive no input.
func (s *Source) Process(int, core.Sample, core.Emit) error { return nil }

// Step implements core.Producer. Corruption is applied to each sample
// the inner producer emits during the step.
func (s *Source) Step(emit core.Emit) (bool, error) {
	if _, err := s.inj.admit(core.Sample{}); err != nil {
		if s.inj.down() {
			// A dead source stops; recovery goes through Restart.
			return false, err
		}
		// A transient error: the source survives to the next tick.
		return true, err
	}
	return s.inner.Step(func(out core.Sample) {
		s.inj.mu.Lock()
		out = s.inj.corruptLocked(out)
		s.inj.mu.Unlock()
		emit(out)
	})
}

// Restart implements core.Restartable: it fails while the injected
// outage lasts and succeeds once healed, delegating to the inner
// producer's own Restart when it has one.
func (s *Source) Restart() error {
	s.inj.mu.Lock()
	down := s.inj.killed
	err := s.inj.downErrLocked()
	s.inj.mu.Unlock()
	if down {
		return err
	}
	if r, ok := s.inner.(core.Restartable); ok {
		return r.Restart()
	}
	return nil
}
