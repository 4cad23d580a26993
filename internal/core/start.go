package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Restartable is implemented by source components that can recover
// from a failure — re-open a socket, re-acquire a device. A started
// graph's restart policy calls Restart after a source dies with an
// error; a Restart error means "still down, keep backing off".
type Restartable interface {
	Restart() error
}

// RestartPolicy bounds a started graph's restart-with-exponential-backoff
// loop for Restartable sources that died with an error (Step returned
// more=false and a non-nil error). Clean exhaustion never restarts. The
// loop never gives up: the backoff doubles per attempt up to Max, which
// bounds the retry rate of a long outage.
type RestartPolicy struct {
	// Base is the first backoff delay (default 20ms).
	Base time.Duration
	// Max caps the backoff (default 2s).
	Max time.Duration
}

// Delay returns the backoff before restart attempt n (1-based): Base
// doubled per attempt and capped at Max, zero fields taking their
// defaults.
func (p RestartPolicy) Delay(attempt int) time.Duration {
	d, limit := float64(p.Base), float64(p.Max)
	if d <= 0 {
		d = float64(20 * time.Millisecond)
	}
	if limit <= 0 {
		limit = float64(2 * time.Second)
	}
	for i := 1; i < attempt && d < limit; i++ {
		d *= 2
	}
	return time.Duration(min(d, limit))
}

// StartOption configures Graph.Start.
type StartOption func(*runState)

// WithSourceRestart enables restart-with-exponential-backoff for
// Restartable sources that die with an error.
func WithSourceRestart(p RestartPolicy) StartOption {
	return func(r *runState) { r.restart = &p }
}

// WithSourceInterval makes producer sources step at the given period
// instead of free-running (live-pipeline pacing).
func WithSourceInterval(d time.Duration) StartOption {
	return func(r *runState) { r.interval = d }
}

// runState is a started graph's engine: Start sets it, Stop clears it.
type runState struct {
	ctx      context.Context
	cancel   context.CancelFunc
	interval time.Duration
	restart  *RestartPolicy
	// gate is held shared by every source step and Restart, and
	// exclusively by Pause.
	gate sync.RWMutex
}

// Start is the live engine, and only a scheduler: it freezes the
// structure and gives each Producer source — the set StepAll steps —
// a periodic job (Every) stepping it with optional pacing and
// restart-with-backoff. Emissions propagate by the same direct call
// StepAll uses, so gating, outcome reporting and timing happen in the
// node path both engines share. Until Stop, those jobs are the graph's
// one engine: StepAll, StepSource and Run return ErrRunning.
func (g *Graph) Start(ctx context.Context, opts ...StartOption) error {
	g.runMu.Lock()
	defer g.runMu.Unlock()
	if g.started.Load() != nil {
		return fmt.Errorf("start: %w", ErrRunning)
	}
	r := &runState{}
	for _, opt := range opts {
		opt(r)
	}
	r.ctx, r.cancel = context.WithCancel(ctx)
	g.started.Store(r)
	g.running.Store(true)
	g.follow(r, nil)
	return nil
}

// Pause runs fn between source steps: it waits out the steps and
// restarts in flight, holds every source before its next one, and
// lifts the structure freeze while fn runs. Then it follows the
// producer list: sources that are gone or replaced have their jobs
// stopped, new ones start, and the rest keep their job and due times,
// so a pause adds no step. On a graph that is not started fn runs.
//
// Pause waits for the steps in flight, so it must not be called from
// a source step, an observer or anything they call; fn must not call
// Start, Pause, Stop or WaitSources.
func (g *Graph) Pause(fn func() error) error {
	g.runMu.Lock()
	defer g.runMu.Unlock()
	r := g.started.Load()
	if r == nil {
		return fn()
	}
	before := g.producerList()
	r.gate.Lock()
	g.running.Store(false)
	err := fn()
	g.running.Store(true)
	r.gate.Unlock()
	g.follow(r, before)
	return err
}

// follow matches the jobs to the producer list: a source of before
// that left it has its job stopped, and a listed one without a job
// gets one. An exhausted source keeps its ended job, so a Pause does
// not start it again. Caller holds runMu, not the gate a dropped
// source's call may wait on.
func (g *Graph) follow(r *runState, before []*Node) {
	ps := g.producerList()
	for _, n := range before {
		if !slices.Contains(ps, n) {
			n.job.Stop()
			n.job = nil
		}
	}
	for _, n := range ps {
		if n.job == nil {
			n.job = Every(r.ctx, time.Now(), r.drive(n))
		}
	}
}

// drive returns source n's job function: one step per call on the
// interval's grid when paced, every step in one call when free-running.
// A failed step's backoff schedules a call that restarts first. Each
// step, with the restart before it, holds the gate shared.
func (r *runState) drive(n *Node) func(time.Time) (time.Time, bool) {
	g := n.graph
	origin := time.Now()
	n.attempt = 0
	return func(now time.Time) (time.Time, bool) {
		for {
			r.gate.RLock()
			if r.ctx.Err() != nil || !slices.Contains(g.producerList(), n) {
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
					for _, o := range g.hooks() {
						o.Done(n.ID(), 0, err)
					}
				} else {
					for _, o := range g.hooks() {
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
			return time.Now().Add(r.restart.Delay(n.attempt)), true
		}
	}
}

// Stop halts the sources, waits out their steps in flight (their
// emissions have propagated by then) and unfreezes the graph. It
// returns any errors collected during the run, and nil on a graph
// that is not started.
func (g *Graph) Stop() error {
	g.runMu.Lock()
	defer g.runMu.Unlock()
	r := g.started.Load()
	if r == nil {
		return nil
	}
	r.cancel()
	for _, n := range g.producerList() {
		n.job.Stop()
		n.job = nil
	}
	g.running.Store(false)
	g.started.Store(nil)
	return g.drainErrors()
}

// WaitSources blocks until every producer source of the started graph,
// also one a Pause starts meanwhile, is exhausted (or stopped via
// context). Injected samples are accepted until Stop. On a graph that
// is not started it returns at once.
func (g *Graph) WaitSources() {
	g.runMu.Lock()
	defer g.runMu.Unlock()
	ps := g.producerList()
	for i := 0; i < len(ps); {
		n := ps[i]
		if j := n.job; j != nil {
			g.runMu.Unlock()
			j.exited.Wait()
			g.runMu.Lock()
		}
		// A Pause only appends sources, and drops the ones it stops: the
		// ones before n have ended, and if n was dropped, start over.
		ps = g.producerList()
		i = slices.Index(ps, n) + 1
	}
}
