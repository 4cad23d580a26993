package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Runner is the live engine, and only a scheduler: one Job per
// Producer source — the set StepAll steps — stepping it with optional
// pacing and restart-with-backoff. Emissions propagate by the same
// direct call StepAll uses, so gating, outcome reporting and timing
// happen in the node path both engines share. Deterministic runs use
// Graph.Run instead.
//
// The graph structure is frozen while the runner is active (Pause lifts it).
type Runner struct {
	g        *Graph
	interval time.Duration
	restart  *RestartPolicy

	// gate is held shared by every source step and Restart, and
	// exclusively by Pause.
	gate sync.RWMutex

	mu  sync.Mutex
	ctx context.Context
	// cancel stops every source; it is nil while the runner is stopped.
	cancel context.CancelFunc
	// drivers lists the sources given a job. An exhausted source stays
	// listed, so a Pause does not start it again.
	drivers []*Node
}

// Restartable is implemented by source components that can recover
// from a failure — re-open a socket, re-acquire a device. The runner's
// restart policy calls Restart after a source dies with an error;
// a Restart error means "still down, keep backing off".
type Restartable interface {
	Restart() error
}

// RestartPolicy bounds the runner's restart-with-exponential-backoff
// loop for Restartable sources that died with an error (Step returned
// more=false and a non-nil error). Clean exhaustion never restarts.
type RestartPolicy struct {
	// MaxRestarts caps consecutive restart attempts; <= 0 means
	// unlimited (the backoff cap bounds the retry rate).
	MaxRestarts int
	// Base is the first backoff delay (default 20ms).
	Base time.Duration
	// Max caps the backoff (default 2s).
	Max time.Duration
	// Multiplier grows the backoff per attempt (default 2).
	Multiplier float64
}

// Delay returns the backoff before restart attempt n (1-based): Base
// grown by Multiplier per attempt and capped at Max, zero fields taking
// their defaults.
func (p RestartPolicy) Delay(attempt int) time.Duration {
	d, limit, mult := float64(p.Base), float64(p.Max), p.Multiplier
	if d <= 0 {
		d = float64(20 * time.Millisecond)
	}
	if limit <= 0 {
		limit = float64(2 * time.Second)
	}
	if mult < 1 {
		mult = 2
	}
	for i := 1; i < attempt && d < limit; i++ {
		d *= mult
	}
	return time.Duration(min(d, limit))
}

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// WithSourceRestart enables restart-with-exponential-backoff for
// Restartable sources that die with an error.
func WithSourceRestart(p RestartPolicy) RunnerOption {
	return func(r *Runner) { r.restart = &p }
}

// WithSourceInterval makes producer sources step at the given period
// instead of free-running (live-pipeline pacing).
func WithSourceInterval(d time.Duration) RunnerOption {
	return func(r *Runner) { r.interval = d }
}

// NewRunner returns a runner for g.
func NewRunner(g *Graph, opts ...RunnerOption) *Runner {
	r := &Runner{g: g}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Start freezes the graph and starts one job per source. It returns
// once everything is running.
func (r *Runner) Start(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cancel != nil {
		return fmt.Errorf("runner: %w", ErrRunning)
	}
	r.ctx, r.cancel = context.WithCancel(ctx)
	r.g.running.Store(true)
	r.follow()
	return nil
}

// Pause runs fn between source steps: it waits out the steps and
// restarts in flight, holds every source before its next one, and
// lifts the structure freeze while fn runs. Then it follows the
// producer list: sources that are gone or replaced have their jobs
// stopped, new ones start, and the rest keep their job and due times,
// so a pause adds no step. On a runner that is not started fn runs.
//
// Pause waits for the steps in flight, so it must not be called from
// a source step, an observer or anything they call; fn must not call
// the runner.
func (r *Runner) Pause(fn func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cancel == nil {
		return fn()
	}
	r.gate.Lock()
	r.g.running.Store(false)
	err := fn()
	r.g.running.Store(true)
	r.gate.Unlock()
	r.follow()
	return err
}

// follow matches the drivers to the producer list: a source that left
// it has its job stopped, and a listed one without a job gets one.
// Caller holds r.mu, not the gate a dropped source's call may wait on.
func (r *Runner) follow() {
	ps := r.g.producerList()
	r.drivers = slices.DeleteFunc(r.drivers, func(n *Node) bool {
		if slices.Contains(ps, n) {
			return false
		}
		n.job.Stop()
		return true
	})
	for _, n := range ps {
		if !slices.Contains(r.drivers, n) {
			n.job = Every(r.ctx, time.Now(), r.drive(n))
			r.drivers = append(r.drivers, n)
		}
	}
}

// drive returns source n's job function: one step per call on the
// interval's grid when paced, every step in one call when free-running.
// A failed step's backoff schedules a call that restarts first. Each
// step, with the restart before it, holds the gate shared.
func (r *Runner) drive(n *Node) func(time.Time) (time.Time, bool) {
	origin := time.Now()
	n.attempt = 0
	return func(now time.Time) (time.Time, bool) {
		for {
			r.gate.RLock()
			if r.ctx.Err() != nil || !slices.Contains(r.g.producerList(), n) {
				// Stopped, or removed or replaced by a Pause.
				r.gate.RUnlock()
				return now, false
			}
			if n.attempt > 0 {
				// The backoff has elapsed: restart, then step again.
				if rerr := n.comp.(Restartable).Restart(); rerr != nil {
					// Still down: keep backing off. The failure is reported
					// to the observers but not accumulated in the graph's
					// error buffer — a long outage is state, not new news.
					err := fmt.Errorf("source %q: restart: %w", n.ID(), rerr)
					for _, o := range r.g.hooks() {
						o.Done(n.ID(), 0, err)
					}
				} else {
					for _, o := range r.g.hooks() {
						o.Restarted(n.ID(), n.attempt)
					}
					n.attempt = 0
				}
			}
			more, err := n.step()
			r.gate.RUnlock()
			if more {
				n.attempt = 0
				if r.interval > 0 {
					return NextDue(origin, r.interval, now), true
				}
				continue
			}
			if _, ok := n.comp.(Restartable); err == nil || !ok || r.restart == nil {
				// Clean exhaustion, or nothing to restart: done.
				return now, false
			}
			n.attempt++
			if r.restart.MaxRestarts > 0 && n.attempt > r.restart.MaxRestarts {
				return now, false
			}
			return time.Now().Add(r.restart.Delay(n.attempt)), true
		}
	}
}

// Stop halts the sources, waits out their steps in flight (their
// emissions have propagated by then) and unfreezes the graph. It
// returns any errors collected during the run.
func (r *Runner) Stop() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cancel == nil {
		return nil
	}
	r.cancel()
	for _, n := range r.drivers {
		n.job.Stop()
	}
	r.g.running.Store(false)
	r.cancel, r.drivers = nil, nil
	return r.g.drainErrors()
}

// WaitSources blocks until every producer source, also one a Pause
// starts meanwhile, is exhausted (or stopped via context). The runner
// keeps accepting injected samples until Stop is called.
func (r *Runner) WaitSources() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < len(r.drivers); {
		n := r.drivers[i]
		r.mu.Unlock()
		n.job.exited.Wait()
		r.mu.Lock()
		// A Pause only appends, and drops sources it stops: the ones
		// before n have ended, and if n was dropped, start over.
		i = slices.Index(r.drivers, n) + 1
	}
}
