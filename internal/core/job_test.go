package core

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestJobCallsNeverOverlap: a job whose every due time has passed
// calls back to back, one call at a time, until Stop.
func TestJobCallsNeverOverlap(t *testing.T) {
	var active, calls, overlaps atomic.Int64
	j := Every(context.Background(), time.Time{}, func(now time.Time) (time.Time, bool) {
		if active.Add(1) > 1 {
			overlaps.Add(1)
		}
		calls.Add(1)
		time.Sleep(10 * time.Microsecond)
		active.Add(-1)
		return now, true
	})
	for calls.Load() < 100 {
		time.Sleep(time.Millisecond)
	}
	j.Stop()
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d calls overlapped another", n)
	}
}

// TestJobStopWaitsForCallInFlight: Stop returns only once the call in
// flight has returned, and no call starts after it.
func TestJobStopWaitsForCallInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	j := Every(context.Background(), time.Time{}, func(now time.Time) (time.Time, bool) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return now, true
	})
	<-entered
	stopped := make(chan struct{})
	go func() {
		j.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a call was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stopped
	n := calls.Load()
	time.Sleep(5 * time.Millisecond)
	if got := calls.Load(); got != n {
		t.Errorf("%d calls started after Stop returned", got-n)
	}
}

// TestJobStopRacingDueTime: a Stop that lands on or around a due time
// returns with no call in flight, and none starts afterwards.
func TestJobStopRacingDueTime(t *testing.T) {
	const period = 100 * time.Microsecond
	for i := 0; i < 200; i++ {
		var active, calls atomic.Int64
		origin := time.Now()
		j := Every(context.Background(), origin, func(now time.Time) (time.Time, bool) {
			active.Add(1)
			calls.Add(1)
			time.Sleep(20 * time.Microsecond)
			active.Add(-1)
			return NextDue(origin, period, now), true
		})
		time.Sleep(time.Duration(i%7) * period / 3)
		j.Stop()
		if active.Load() != 0 {
			t.Fatalf("run %d: a call was in flight after Stop returned", i)
		}
		n := calls.Load()
		time.Sleep(3 * period)
		if got := calls.Load(); got != n {
			t.Fatalf("run %d: %d calls started after Stop returned", i, got-n)
		}
	}
}

// TestJobKeepsAbsoluteDueTimes: calls land on t0 + k·period, so a call
// that takes half the period does not stretch it: 20 calls take about
// 19 periods, where a delay-after-return loop takes about 29.
func TestJobKeepsAbsoluteDueTimes(t *testing.T) {
	const period, calls = 10 * time.Millisecond, 20
	done := make(chan time.Duration)
	origin := time.Now()
	n := 0
	Every(context.Background(), origin, func(now time.Time) (time.Time, bool) {
		time.Sleep(period / 2)
		if n++; n == calls {
			done <- now.Sub(origin)
			return now, false
		}
		return NextDue(origin, period, now), true
	})
	elapsed := <-done
	if elapsed < (calls-1)*period || elapsed > (calls+4)*period {
		t.Errorf("%d calls of half a period began over %v, want about %v", calls, elapsed, (calls-1)*period)
	}
}

// TestJobOverrunRunsOnceThenResumes: a call that overruns the next due
// time is followed by exactly one call straight away, and the job then
// returns to its grid, as a Ticker's one-slot buffer does.
func TestJobOverrunRunsOnceThenResumes(t *testing.T) {
	const period = 40 * time.Millisecond
	origin := time.Now()
	starts := make(chan time.Duration, 3)
	var firstEnd time.Duration
	n := 0
	Every(context.Background(), origin, func(now time.Time) (time.Time, bool) {
		if n++; n == 1 {
			time.Sleep(5 * period / 2)
			firstEnd = time.Since(origin)
		}
		starts <- now.Sub(origin)
		return NextDue(origin, period, now), n < 3
	})
	<-starts
	second, third := <-starts, <-starts
	if second < firstEnd || second > firstEnd+period/2 {
		t.Errorf("the call after a 2.5-period overrun began at %v, want straight away after %v", second, firstEnd)
	}
	if due := NextDue(origin, period, origin.Add(second)).Sub(origin); third < due {
		t.Errorf("the call after the catch-up began at %v, want on the grid at %v", third, due)
	}
}

// TestJobEndsLongWait: cancelling ctx, or Stop, promptly ends a job
// waiting on a due time an hour away, without calling it.
func TestJobEndsLongWait(t *testing.T) {
	for _, by := range []string{"ctx", "stop"} {
		t.Run(by, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			j := Every(ctx, time.Now().Add(time.Hour), func(now time.Time) (time.Time, bool) {
				calls.Add(1)
				return now, true
			})
			ended := make(chan struct{})
			go func() {
				j.exited.Wait()
				close(ended)
			}()
			time.Sleep(time.Millisecond) // let the job start waiting
			if by == "ctx" {
				cancel()
			} else {
				go j.Stop()
			}
			select {
			case <-ended:
			case <-time.After(5 * time.Second):
				t.Fatalf("the job still waited 5 s after its %s ended it", by)
			}
			if n := calls.Load(); n != 0 {
				t.Errorf("job called %d times before a due time an hour away", n)
			}
		})
	}
}

// TestJobBlockedCallHandsOffShard: calls blocked on every shard hold
// up only their own jobs. A paced job on each shard, due just after the
// blocking calls begin, makes all its calls while they block, each
// beginning within a few milliseconds of its due time (the median, so
// that a busy machine's scheduling delays do not count), and each
// blocked job, once released, calls once straight away and is then
// back on its grid.
func TestJobBlockedCallHandsOffShard(t *testing.T) {
	const period, pacedCalls = 50 * time.Millisecond, 10
	origin := time.Now()
	// Every assigns shards in turn, so each gets one paced job and one
	// or two of the blocked ones.
	paced := make([]*Job, len(shards))
	lateness := make([][]time.Duration, len(paced))
	for i := range paced {
		i, due := i, origin.Add(period)
		paced[i] = Every(context.Background(), due, func(now time.Time) (time.Time, bool) {
			lateness[i] = append(lateness[i], time.Since(due))
			due = NextDue(origin, period, now)
			return due, len(lateness[i]) < pacedCalls
		})
	}
	blocked := make([]*Job, len(shards)+1)
	starts := make([][]time.Duration, len(blocked))
	release := make(chan struct{})
	for i := range blocked {
		i := i
		// Due just before the paced jobs, so each blocks a callback
		// that would otherwise run them next.
		blocked[i] = Every(context.Background(), origin.Add(period-50*time.Microsecond), func(now time.Time) (time.Time, bool) {
			if starts[i] = append(starts[i], now.Sub(origin)); len(starts[i]) == 1 {
				<-release
			}
			return NextDue(origin, period, now), len(starts[i]) < 4
		})
	}
	pacedDone := make(chan struct{})
	go func() {
		for _, j := range paced {
			j.exited.Wait()
		}
		close(pacedDone)
	}()
	select {
	case <-pacedDone:
	case <-time.After(pacedCalls*period + 5*time.Second):
		t.Errorf("the paced jobs did not finish their %d calls while the blocked calls held every shard", pacedCalls)
	}
	released := time.Since(origin)
	close(release)
	<-pacedDone
	for _, j := range blocked {
		j.exited.Wait()
	}
	for i, late := range lateness {
		slices.Sort(late)
		if m := late[len(late)/2]; m > period/10 {
			t.Errorf("paced job %d: with every shard's callbacks blocked, its calls began a median %v after their due times, want within %v", i, m, period/10)
		}
	}
	for i, st := range starts {
		if st[0] > released {
			t.Errorf("blocked job %d: its first call began at %v, after the release at %v", i, st[0], released)
		}
		if st[1] < released || st[1] > released+period/2 {
			t.Errorf("blocked job %d: the call after its release at %v began at %v, want straight away", i, released, st[1])
		}
		for k := 2; k < len(st); k++ {
			due := NextDue(origin, period, origin.Add(st[k-1])).Sub(origin)
			if st[k] < due || st[k] >= due+period {
				t.Errorf("blocked job %d: call %d began at %v, want on its grid at %v", i, k+1, st[k], due)
			}
		}
	}
}

// TestJobsShareGoroutines: a waiting job holds no goroutine: 2,000 jobs
// due in an hour add at most one goroutine per shard, and stopping
// them leaves none behind.
func TestJobsShareGoroutines(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	jobs := make([]*Job, 2000)
	for i := range jobs {
		jobs[i] = Every(ctx, time.Now().Add(time.Hour), func(now time.Time) (time.Time, bool) {
			return now, true
		})
	}
	// Earlier tests' callbacks may still be ending: allow them a second.
	added := func() int { return runtime.NumGoroutine() - before }
	for end := time.Now().Add(time.Second); added() > runtime.GOMAXPROCS(0) && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if n := added(); n > runtime.GOMAXPROCS(0) {
		t.Errorf("%d waiting jobs added %d goroutines, want at most %d", len(jobs), n, runtime.GOMAXPROCS(0))
	}
	for _, j := range jobs {
		j.Stop()
		j.exited.Wait()
	}
	for end := time.Now().Add(5 * time.Second); added() > 0 && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if n := added(); n > 0 {
		t.Errorf("%d goroutines left after stopping %d jobs", n, len(jobs))
	}
}

// TestJobStartAllocs: starting a job that its first call ends allocates
// the Job and nothing more: no goroutine closure, timer or ctx watch.
func TestJobStartAllocs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	once := func(now time.Time) (time.Time, bool) { return now, false }
	allocs := testing.AllocsPerRun(1000, func() {
		Every(ctx, time.Now(), once).exited.Wait()
	})
	if allocs > 1 {
		t.Errorf("a job its first call ends allocates %v times, want at most 1", allocs)
	}
}

// TestJobNowIsDueTime: a call the job waited for gets its due time as
// now, so a late wake does not move its grid, while a first call due
// at Every gets the time it runs.
func TestJobNowIsDueTime(t *testing.T) {
	const period = 20 * time.Millisecond
	origin := time.Now()
	var got []time.Time
	j := Every(context.Background(), origin.Add(period), func(now time.Time) (time.Time, bool) {
		got = append(got, now)
		return NextDue(origin, period, now), len(got) < 3
	})
	j.exited.Wait()
	for k, now := range got {
		if due := origin.Add(time.Duration(k+1) * period); !now.Equal(due) {
			t.Errorf("call %d got now at %v, want its due time at %v", k+1, now.Sub(origin), due.Sub(origin))
		}
	}
	start := time.Now()
	var first time.Time
	Every(context.Background(), time.Time{}, func(now time.Time) (time.Time, bool) {
		first = now
		return now, false
	}).exited.Wait()
	if first.Before(start) {
		t.Errorf("a first call due at Every got now %v before Every was called", start.Sub(first))
	}
}

// TestJobHeapKeepsDueOrder: after pushes and removals from anywhere in
// a shard's heap, the jobs come out in due order and each knows its
// place.
func TestJobHeapKeepsDueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h jobHeap
	for i := 0; i < 500; i++ {
		h.push(&Job{at: time.Duration(rng.Intn(100))})
		if i%3 == 0 {
			h.remove(rng.Intn(len(h)))
		}
	}
	for i, j := range h {
		if j.idx != i {
			t.Fatalf("job at %d says it is at %d", i, j.idx)
		}
	}
	last := time.Duration(-1)
	for len(h) > 0 {
		j := h[0]
		h.remove(0)
		if j.at < last || j.idx != -1 {
			t.Fatalf("took out due %v (index %d) after %v", j.at, j.idx, last)
		}
		last = j.at
	}
}

func TestNextDue(t *testing.T) {
	origin := time.Unix(1000, 0)
	const p = 10 * time.Millisecond
	for _, c := range []struct{ now, want time.Duration }{
		{0, p},
		{p - 1, p},
		{p, 2 * p},
		{25 * p / 2, 13 * p},
	} {
		if got := NextDue(origin, p, origin.Add(c.now)).Sub(origin); got != c.want {
			t.Errorf("NextDue at origin+%v = origin+%v, want origin+%v", c.now, got, c.want)
		}
	}
}
