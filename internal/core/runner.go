package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Runner is the live engine, and only a scheduler: one goroutine per
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
	// drivers lists the sources given a goroutine. An exhausted source
	// stays listed, so a Pause does not start it again.
	drivers []*Node
	// live counts the source goroutines not yet returned; idle, on mu,
	// is broadcast as each returns.
	live int
	idle sync.Cond
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

// withDefaults fills zero fields.
func (p RestartPolicy) withDefaults() RestartPolicy {
	if p.Base <= 0 {
		p.Base = 20 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	return p
}

// delay returns the backoff before restart attempt n (1-based).
func (p RestartPolicy) delay(attempt int) time.Duration {
	d := float64(p.Base)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.Max) {
			return p.Max
		}
	}
	if d > float64(p.Max) {
		return p.Max
	}
	return time.Duration(d)
}

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// WithSourceRestart enables restart-with-exponential-backoff for
// Restartable sources that die with an error.
func WithSourceRestart(p RestartPolicy) RunnerOption {
	return func(r *Runner) {
		pp := p.withDefaults()
		r.restart = &pp
	}
}

// WithSourceInterval makes producer sources step at the given period
// instead of free-running (live-pipeline pacing).
func WithSourceInterval(d time.Duration) RunnerOption {
	return func(r *Runner) { r.interval = d }
}

// NewRunner returns a runner for g.
func NewRunner(g *Graph, opts ...RunnerOption) *Runner {
	r := &Runner{g: g}
	r.idle.L = &r.mu
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Start freezes the graph and launches one goroutine per source. It
// returns once everything is running.
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
// producer list: sources that are gone or replaced never step again,
// new ones start, and the rest keep their goroutine and pacing, so a
// pause adds no step. On a runner that is not started fn just runs.
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
	defer r.gate.Unlock()
	r.g.running.Store(false)
	err := fn()
	r.g.running.Store(true)
	r.follow()
	return err
}

// follow matches the drivers to the producer list: a source that left
// it is dropped, and a listed one without a goroutine gets one. Caller
// holds r.mu.
func (r *Runner) follow() {
	ps := r.g.producerList()
	r.drivers = slices.DeleteFunc(r.drivers, func(n *Node) bool { return !slices.Contains(ps, n) })
	for _, n := range ps {
		if slices.Contains(r.drivers, n) {
			continue
		}
		r.drivers = append(r.drivers, n)
		r.live++
		go r.driveSource(r.ctx, n)
	}
}

// driveSource steps one producer until exhaustion, restarting failed
// Restartable sources with exponential backoff when a restart policy
// is installed. Each step, with the restart a backoff may put before
// it, holds the gate shared.
func (r *Runner) driveSource(ctx context.Context, n *Node) {
	var ticker *time.Ticker
	if r.interval > 0 {
		ticker = time.NewTicker(r.interval)
		defer ticker.Stop()
	}
	// Backoff timer, created on first use and reused across restarts.
	// time.After in the backoff select would leak a timer (and its
	// goroutine-visible allocation) per restart attempt until it fires:
	// when ctx wins the race the timer keeps running for the full delay.
	var backoff *time.Timer
	defer func() {
		if backoff != nil {
			backoff.Stop()
		}
		r.mu.Lock()
		r.live--
		r.idle.Broadcast()
		r.mu.Unlock()
	}()
	attempt := 0
	for {
		r.gate.RLock()
		if ctx.Err() != nil || !slices.Contains(r.g.producerList(), n) {
			// Stopped, or removed or replaced by a Pause.
			r.gate.RUnlock()
			return
		}
		if attempt > 0 {
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
					o.Restarted(n.ID(), attempt)
				}
				attempt = 0
			}
		}
		more, err := n.step()
		r.gate.RUnlock()
		if more {
			attempt = 0
			if ticker != nil {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
			}
			continue
		}
		if _, ok := n.comp.(Restartable); err == nil || !ok || r.restart == nil {
			// Clean exhaustion, or nothing to restart: done.
			return
		}
		attempt++
		if r.restart.MaxRestarts > 0 && attempt > r.restart.MaxRestarts {
			return
		}
		if backoff == nil {
			backoff = time.NewTimer(r.restart.delay(attempt))
		} else {
			// The timer is always drained here or stopped by the
			// deferred Stop, so Reset is safe without a racy drain.
			backoff.Reset(r.restart.delay(attempt))
		}
		select {
		case <-ctx.Done():
			return
		case <-backoff.C:
		}
	}
}

// Stop halts the sources, waits for their goroutines to return (their
// emissions have propagated by then) and unfreezes the graph. It
// returns any errors collected during the run.
func (r *Runner) Stop() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cancel == nil {
		return nil
	}
	r.cancel()
	for r.live > 0 {
		r.idle.Wait()
	}
	r.g.running.Store(false)
	r.cancel, r.drivers = nil, nil
	return r.g.drainErrors()
}

// WaitSources blocks until every producer source is exhausted (or
// stopped via context). The runner keeps accepting injected samples
// until Stop is called.
func (r *Runner) WaitSources() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.live > 0 {
		r.idle.Wait()
	}
}
