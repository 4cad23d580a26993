package core

import (
	"context"
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
