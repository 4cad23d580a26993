package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Job is a periodic call with absolute due times: the clock of source
// pacing and restart backoff, supervisor sweeps, periodic checkpoints,
// the cluster pump and the router sweep. A job holds no goroutine or
// timer of its own: it waits in one of the process's shards, and a
// shard's timer callback makes its calls.
type Job struct {
	ctx   context.Context
	fn    func(now time.Time) (next time.Time, more bool)
	shard *shard
	// at is the due time as an offset from epoch, never negative, so
	// that at - now cannot overflow; idx is the job's place in its
	// shard's heap, -1 while it is not waiting. Both are guarded by the
	// shard's lock.
	at  time.Duration
	idx int
	// waited reports that the due time was still ahead when the job
	// joined its shard (guarded by the shard's lock): its call gets the
	// due time as now, as a Ticker's tick carried its send time, so a
	// late wake does not skip a grid point.
	waited bool
	// unwatch ends the ctx watch, which the job's first wait registers.
	unwatch func() bool

	// mu is held by every call, so Stop, which takes it, waits out the
	// call in flight; it guards stopped.
	mu      sync.Mutex
	stopped bool
	exited  sync.WaitGroup
}

// handoff is how long a call may hold up the rest of its shard: before
// each call the shard's timer is set to fire by the later of the next
// due time and handoff from now, so if the call blocks or overruns, a
// spare callback runs the jobs that fall due meanwhile.
const handoff = time.Millisecond

// shard is a heap of waiting jobs ordered by due time under one timer,
// set at the earliest due time. The timer's callback, callDue, makes
// every due call in one wake.
type shard struct {
	mu   sync.Mutex
	jobs jobHeap
	// armed reports that the timer is set to fire at when and that no
	// callback has begun since it was set.
	armed bool
	when  time.Duration
	timer *time.Timer
}

var (
	// shards are process-wide, one per P: GOMAXPROCS callbacks can
	// run their shards' due jobs at once.
	shards    = newShards(runtime.GOMAXPROCS(0))
	nextShard atomic.Uint32
)

func newShards(n int) []*shard {
	ss := make([]*shard, n)
	for i := range ss {
		s := &shard{}
		s.timer = time.AfterFunc(time.Hour, func() { s.callDue(true) })
		s.timer.Stop()
		ss[i] = s
	}
	return ss
}

// Every starts a job that calls fn at first, then at each due time fn
// returns, until fn returns false, ctx is done or Stop is called. Calls
// never overlap, and a due time already past runs at once: a call that
// overruns the next due time is followed by one more straight away,
// after which a fn returning NextDue of its now is back on its grid.
func Every(ctx context.Context, first time.Time, fn func(now time.Time) (next time.Time, more bool)) *Job {
	s := shards[nextShard.Add(1)%uint32(len(shards))]
	j := &Job{ctx: ctx, fn: fn, shard: s, at: max(first.Sub(epoch), 0), idx: -1}
	j.exited.Add(1)
	now := time.Since(epoch)
	if j.at <= now {
		// Due: the first call runs now, beside the caller, not at the
		// shard timer's next wake nor behind the shard's other calls.
		go startJob()
		starting <- j
		return j
	}
	s.mu.Lock()
	j.waited = true
	s.jobs.push(j)
	j.watch()
	s.arm(s.jobs[0].at, now, false)
	s.mu.Unlock()
	return j
}

// starting hands each job due at Every to the goroutine started for its
// first call, which a go statement with arguments would do with a
// closure allocation. Each send has its own receiver; 64 lets a burst
// of starts go on before those goroutines are scheduled.
var starting = make(chan *Job, 64)

// startJob makes the first call of a job due at Every, then runs its
// shard's due calls: a first call that overran is followed by one more
// straight away, and the timer is set for the job's next due time.
func startJob() {
	j := <-starting
	j.call(time.Now())
	j.shard.callDue(false)
}

// callDue makes every due call of the shard, one after another, then
// sets the timer at the next due time; fired says the timer's wake
// called it, not startJob. Before each call it sets the timer to fire
// by the later of the next due time and handoff from now, so a call
// that blocks leaves the rest to a spare callback.
func (s *shard) callDue(fired bool) {
	s.mu.Lock()
	if fired {
		s.armed = false
	}
	for len(s.jobs) > 0 {
		now := time.Now()
		at := now.Sub(epoch)
		j := s.jobs[0]
		if j.at > at {
			s.arm(j.at, at, true)
			break
		}
		s.jobs.remove(0)
		if len(s.jobs) > 0 {
			s.arm(max(s.jobs[0].at, at+handoff), at, false)
		}
		if j.waited {
			now = epoch.Add(j.at)
		}
		s.mu.Unlock()
		j.call(now)
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// arm sets the timer to fire at at, given the offset now, unless it is
// set to fire then already, or by then when early is allowed. Caller
// holds s.mu.
func (s *shard) arm(at, now time.Duration, exact bool) {
	if s.armed && (s.when == at || !exact && s.when < at) {
		return
	}
	s.timer.Reset(at - now)
	s.armed, s.when = true, at
}

// call makes one call, unless the job was stopped or its ctx is done,
// and puts the job back in its shard to wait for the due time fn
// returns; otherwise the job ends.
func (j *Job) call(now time.Time) {
	j.mu.Lock()
	more := !j.stopped && !j.done()
	var next time.Time
	if more {
		next, more = j.fn(now)
	}
	if more {
		s := j.shard
		s.mu.Lock()
		// The ctx watch ends only waiting jobs: check for an end during
		// the call under the shard's lock, which the watch takes too.
		if more = !j.done(); more {
			j.at = max(next.Sub(epoch), 0)
			j.waited = j.at > time.Since(epoch)
			if j.unwatch == nil {
				j.watch()
			}
			s.jobs.push(j)
		}
		s.mu.Unlock()
	}
	j.mu.Unlock()
	if !more {
		j.end()
	}
}

// done reports whether the job's ctx is done.
func (j *Job) done() bool {
	select {
	case <-j.ctx.Done():
		return true
	default:
		return false
	}
}

// watch ends the job, while it waits, once its ctx is done. Caller
// holds the shard's lock.
func (j *Job) watch() {
	if j.ctx.Done() != nil {
		j.unwatch = context.AfterFunc(j.ctx, func() {
			if j.dequeue() {
				j.end()
			}
		})
	}
}

// dequeue takes the job out of its shard and reports whether it was
// waiting there; a job in a call is not.
func (j *Job) dequeue() bool {
	s := j.shard
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.idx < 0 {
		return false
	}
	s.jobs.remove(j.idx)
	return true
}

// end releases the ctx watch and marks the job exited. It runs once,
// by whichever of a call, Stop and the watch took the job out of its
// shard for the last time.
func (j *Job) end() {
	if j.unwatch != nil {
		j.unwatch()
	}
	j.exited.Done()
}

// Stop ends the job once a call in flight has returned; no call starts
// after it. It must not be called from fn. On nil it does nothing.
func (j *Job) Stop() {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.stopped = true
	waiting := j.dequeue()
	j.mu.Unlock()
	if waiting {
		j.end()
	}
}

// jobHeap is a binary min-heap of a shard's waiting jobs by due time.
// Each job keeps its index, so Stop and the ctx watch take it out in
// place.
type jobHeap []*Job

func (h *jobHeap) push(j *Job) {
	j.idx = len(*h)
	*h = append(*h, j)
	h.up(j.idx)
}

// remove takes out the job at i.
func (h *jobHeap) remove(i int) {
	old, n := *h, len(*h)-1
	old[i].idx = -1
	old[i], old[n] = old[n], nil
	*h = old[:n]
	if i < n {
		old[i].idx = i
		h.down(i)
		h.up(i)
	}
}

func (h jobHeap) up(i int) {
	for p := (i - 1) / 2; i > 0 && h[i].at < h[p].at; i, p = p, (p-1)/2 {
		h.swap(i, p)
	}
}

func (h jobHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].at < h[c].at {
			c++
		}
		if h[i].at <= h[c].at {
			return
		}
		h.swap(i, c)
		i = c
	}
}

func (h jobHeap) swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].idx, h[b].idx = a, b
}

// NextDue returns the first time after now on the grid origin + k·period.
func NextDue(origin time.Time, period time.Duration, now time.Time) time.Time {
	return origin.Add((now.Sub(origin)/period + 1) * period)
}
