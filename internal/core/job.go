package core

import (
	"context"
	"sync"
	"time"
)

// Job is a periodic call with absolute due times, on one goroutine and
// one timer: the clock of source pacing and restart backoff, supervisor
// sweeps, periodic checkpoints, the cluster pump and the router sweep.
type Job struct {
	ctx context.Context
	due time.Time
	fn  func(now time.Time) (next time.Time, more bool)

	// mu is held by every call, so Stop, which takes it, waits out the
	// call in flight; it guards stopped and the timer too.
	mu      sync.Mutex
	stopped bool
	// timer is made at the first wait, and Reset only after a receive
	// or by Stop, which ends the job whatever the channel then holds.
	timer  *time.Timer
	exited sync.WaitGroup
}

// starting hands each job to the goroutine Every starts for it, which a
// go statement with arguments would do with a closure allocation. Each
// send has its own receiver; 64 lets a fleet's burst of starts go on.
var starting = make(chan *Job, 64)

// Every starts a job that calls fn at first, then at each due time fn
// returns, until fn returns false, ctx is done or Stop is called. Calls
// never overlap, and a due time already past runs at once: a call that
// overruns the next due time is followed by one more straight away,
// after which a fn returning NextDue of its now is back on its grid.
func Every(ctx context.Context, first time.Time, fn func(now time.Time) (next time.Time, more bool)) *Job {
	j := &Job{ctx: ctx, due: first, fn: fn}
	j.exited.Add(1)
	go func() { (<-starting).run() }()
	starting <- j
	return j
}

func (j *Job) run() {
	defer j.exited.Done()
	done, now := j.ctx.Done(), time.Now()
	for more := true; more; now = time.Now() {
		j.mu.Lock()
		if wait := j.due.Sub(now); wait > 0 && !j.stopped {
			if j.timer == nil {
				j.timer = time.NewTimer(wait)
			} else {
				j.timer.Reset(wait)
			}
			j.mu.Unlock()
			select {
			case <-done:
				return
			case now = <-j.timer.C:
			}
			j.mu.Lock()
		}
		select {
		case <-done:
			more = false
		default:
			if more = !j.stopped; more {
				j.due, more = j.fn(now)
			}
		}
		j.mu.Unlock()
	}
}

// Stop ends the job once a call in flight has returned; no call starts
// after it. It must not be called from fn. On nil it does nothing.
func (j *Job) Stop() {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.stopped = true
	if j.timer != nil {
		j.timer.Reset(0) // wake a wait, so the goroutine ends
	}
	j.mu.Unlock()
}

// NextDue returns the first time after now on the grid origin + k·period.
func NextDue(origin time.Time, period time.Duration, now time.Time) time.Time {
	return origin.Add((now.Sub(origin)/period + 1) * period)
}
