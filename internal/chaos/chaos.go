// Package chaos provides composable fault-injecting wrappers for
// Processing Components, so failure paths become first-class, testable
// scenarios instead of incidents. A wrapper preserves the inner
// component's ID and Spec — the graph wiring is unchanged — and injects
// faults on the way through: dropped samples, corrupted payloads,
// returned errors, panics, and scripted or periodic outages
// ("flapping"). All randomised faults draw from a seeded PRNG, so a
// chaos scenario replays identically run-to-run.
//
// The wrappers compose with the supervision machinery in
// internal/health: a killed source trips the runner's restart-with-
// backoff path, the watchdog notices the silence, and the supervisor
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
// down state (killed manually or by a flap schedule). Matched with
// errors.Is.
var ErrDown = errors.New("chaos: injected outage")

// Option configures an injector.
type Option func(*injector)

// WithSeed seeds the injector's PRNG (default 1). Two injectors with
// the same seed and option set inject identical fault sequences.
func WithSeed(seed int64) Option {
	return func(in *injector) { in.rng = rand.New(rand.NewSource(seed)) }
}

// WithDrop silently discards each sample with probability p: a lossy
// sensor or link.
func WithDrop(p float64) Option {
	return func(in *injector) { in.dropP = p }
}

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

// WithPanicEvery makes every nth operation panic — the misbehaving
// third-party component the engine's containment exists for.
func WithPanicEvery(n int) Option {
	return func(in *injector) { in.panicEvery = n }
}

// WithFlap cycles the injector between up ops healthy and down ops
// dead, starting healthy: a flaky source that keeps coming back.
func WithFlap(up, down int) Option {
	return func(in *injector) { in.flapUp, in.flapDown = up, down }
}

// injector holds the fault configuration and the mutable fault state
// shared by a wrapper's operations. Safe for concurrent use (the async
// engine drives components from several goroutines).
type injector struct {
	mu  sync.Mutex
	rng *rand.Rand

	dropP      float64
	corruptP   float64
	corrupt    func(core.Sample) core.Sample
	errEvery   int
	panicEvery int
	flapUp     int
	flapDown   int

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
// (possibly corrupted) sample, whether it should proceed, and an error
// to surface instead.
func (in *injector) admit(s core.Sample) (out core.Sample, proceed bool, err error) {
	in.mu.Lock()
	in.ops++
	if in.panicEvery > 0 && in.ops%in.panicEvery == 0 {
		in.mu.Unlock()
		panic(fmt.Sprintf("chaos: injected panic (op %d)", in.ops))
	}
	if in.downLocked() {
		err = in.downErrLocked()
		in.mu.Unlock()
		return s, false, err
	}
	if in.errEvery > 0 && in.ops%in.errEvery == 0 {
		in.mu.Unlock()
		return s, false, fmt.Errorf("chaos: injected error (op %d)", in.ops)
	}
	if in.dropP > 0 && in.rng.Float64() < in.dropP {
		in.mu.Unlock()
		return s, false, nil
	}
	if in.corrupt != nil && in.corruptP > 0 && in.rng.Float64() < in.corruptP {
		s = in.corrupt(s)
	}
	in.mu.Unlock()
	return s, true, nil
}

// downLocked reports the effective outage state: a manual Kill wins;
// otherwise the flap schedule decides. Called with in.mu held.
func (in *injector) downLocked() bool {
	if in.killed {
		return true
	}
	if in.flapUp > 0 && in.flapDown > 0 {
		return (in.ops-1)%(in.flapUp+in.flapDown) >= in.flapUp
	}
	return false
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
	return in.downLocked()
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

// Inner returns the wrapped component.
func (c *Component) Inner() core.Component { return c.inner }

// Kill forces the component down: every Process returns err (ErrDown
// when nil) until Heal.
func (c *Component) Kill(err error) { c.inj.kill(err) }

// Heal clears a Kill (and overrides nothing else — flap schedules
// resume where they were).
func (c *Component) Heal() { c.inj.heal() }

// Down reports the current outage state.
func (c *Component) Down() bool { return c.inj.down() }

// Process implements core.Component with the injector's faults applied
// to the inbound sample.
func (c *Component) Process(port int, in core.Sample, emit core.Emit) error {
	s, proceed, err := c.inj.admit(in)
	if err != nil {
		return err
	}
	if !proceed {
		return nil
	}
	return c.inner.Process(port, s, emit)
}

// Source wraps a Producer with fault injection on its Step path. A
// down Source dies (Step returns more=false with the outage error),
// which is exactly the shape the runner's restart-with-backoff path
// recovers from: Source implements core.Restartable, and Restart
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

// Inner returns the wrapped producer.
func (s *Source) Inner() core.Producer { return s.inner }

// Kill forces the source down: the next Step dies with err (ErrDown
// when nil) and Restart keeps failing until Heal.
func (s *Source) Kill(err error) { s.inj.kill(err) }

// Heal clears a Kill; a pending Restart then succeeds.
func (s *Source) Heal() { s.inj.heal() }

// Down reports the current outage state.
func (s *Source) Down() bool { return s.inj.down() }

// Process implements core.Component; sources receive no input.
func (s *Source) Process(int, core.Sample, core.Emit) error { return nil }

// Step implements core.Producer. Emission faults (drop, corrupt) are
// applied to each sample the inner producer emits during the step.
func (s *Source) Step(emit core.Emit) (bool, error) {
	_, proceed, err := s.inj.admit(core.Sample{})
	if err != nil {
		if s.inj.down() {
			// A dead source stops; recovery goes through Restart.
			return false, err
		}
		// A transient error: the source survives to the next tick.
		return true, err
	}
	if !proceed {
		// Dropped tick: consume the inner step's emissions silently so
		// the replay position still advances.
		return s.inner.Step(func(core.Sample) {})
	}
	return s.inner.Step(func(out core.Sample) {
		out, keep := s.inj.admitEmission(out)
		if keep {
			emit(out)
		}
	})
}

// admitEmission applies only the sample-level faults (drop, corrupt)
// to an emission — outage/error/panic scheduling already happened for
// the step itself.
func (in *injector) admitEmission(s core.Sample) (core.Sample, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.dropP > 0 && in.rng.Float64() < in.dropP {
		return s, false
	}
	if in.corrupt != nil && in.corruptP > 0 && in.rng.Float64() < in.corruptP {
		s = in.corrupt(s)
	}
	return s, true
}

// Restart implements core.Restartable: it fails while the injected
// outage lasts and succeeds once healed, delegating to the inner
// producer's own Restart when it has one.
func (s *Source) Restart() error {
	s.inj.mu.Lock()
	down := s.inj.downLocked()
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
