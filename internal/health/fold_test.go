package health

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perpos/internal/core"
)

// synthClock is a monitor clock the sweeping goroutine moves forward.
type synthClock struct{ ns atomic.Int64 }

func (c *synthClock) now() time.Time      { return t0.Add(time.Duration(c.ns.Load())) }
func (c *synthClock) set(d time.Duration) { c.ns.Store(int64(d)) }

// readWhile calls Health and Snapshot until stop closes: reads fold
// too, so they race the taps and sweeps.
func readWhile(m *Monitor, node string, stop <-chan struct{}, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Health(node)
			m.Snapshot()
		}
	}()
}

// TestRecoveryCountsExactlyTheDownEmissions taps from several
// goroutines while Advance, Health and Snapshot run: outputs tapped
// while the node was healthy never count toward recovery, and the
// breaker closes on exactly the RecoveryEmissions-th output tapped
// while it was open.
func TestRecoveryCountsExactlyTheDownEmissions(t *testing.T) {
	const tappers, perTapper = 4, 250
	const recovery = tappers*perTapper + 1
	clk := &synthClock{}
	m := NewMonitor(Policy{MaxConsecutiveErrors: 1, RecoveryEmissions: recovery}, withClock(clk.now))

	// tapAll taps n outputs per goroutine while the caller sweeps.
	tapAll := func(n int, sweep func()) {
		var wg sync.WaitGroup
		for i := 0; i < tappers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < n; k++ {
					m.Tap("wifi", core.Sample{})
				}
			}()
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		stop := make(chan struct{})
		var readers sync.WaitGroup
		readWhile(m, "wifi", stop, &readers)
		for {
			select {
			case <-finished:
				close(stop)
				readers.Wait()
				return
			default:
			}
			sweep()
			runtime.Gosched()
		}
	}

	// Healthy outputs, folded by sweeps and reads as they come.
	tapAll(perTapper, func() {
		if ev := m.Advance(clk.now()); len(ev) != 0 {
			t.Errorf("healthy tapping produced events: %+v", ev)
		}
	})
	// A few healthy outputs still unfolded when the breaker trips: the
	// tripping sweep folds them as healthy first.
	m.Tap("wifi", core.Sample{})
	m.Tap("wifi", core.Sample{})
	m.Done("wifi", 0, errors.New("boom"))
	if ev := m.Advance(clk.now()); len(ev) != 1 || ev[0].Up {
		t.Fatalf("want the breaker to open, got %+v", ev)
	}
	m.Done("wifi", 0, nil)

	// One output short of recovery, tapped while sweeps run: the node
	// must stay down throughout.
	tapAll(perTapper, func() {
		if ev := m.Advance(clk.now()); len(ev) != 0 {
			t.Errorf("recovered early: %+v", ev)
		}
	})
	if ev := m.Advance(clk.now()); len(ev) != 0 {
		t.Fatalf("recovered after %d of %d outputs: %+v", recovery-1, recovery, ev)
	}
	m.Tap("wifi", core.Sample{})
	if ev := m.Advance(clk.now()); len(ev) != 1 || !ev[0].Up {
		t.Fatalf("want recovery on output %d, got %+v", recovery, ev)
	}
}

// TestSilenceJudgedPerSweep taps from several goroutines while a sweep
// loop advances a synthetic clock by one period per sweep and readers
// fold concurrently. While outputs keep coming the watched node never
// trips on silence; once they stop it trips no earlier than its
// deadline and no later than its deadline plus two sweep periods after
// the last output.
func TestSilenceJudgedPerSweep(t *testing.T) {
	const period = 10 * time.Millisecond
	const deadline = 5 * period
	const tappers, perTapper = 3, 2000
	clk := &synthClock{}
	m := NewMonitor(Policy{Deadlines: map[string]time.Duration{"gps": deadline}}, withClock(clk.now))

	// Each output is bracketed by clock reads: it happened at a clock
	// reading in [before, after].
	var taps atomic.Int64
	var lastBefore, lastAfter atomic.Int64
	raise := func(v *atomic.Int64, x int64) {
		for {
			cur := v.Load()
			if x <= cur || v.CompareAndSwap(cur, x) {
				return
			}
		}
	}
	var tapping sync.WaitGroup
	for i := 0; i < tappers; i++ {
		tapping.Add(1)
		go func() {
			defer tapping.Done()
			for k := 0; k < perTapper; k++ {
				before := clk.ns.Load()
				m.Tap("gps", core.Sample{})
				after := clk.ns.Load()
				raise(&lastBefore, before)
				raise(&lastAfter, after)
				taps.Add(1)
			}
		}()
	}
	var stopped atomic.Bool
	go func() { tapping.Wait(); stopped.Store(true) }()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readWhile(m, "gps", stop, &readers)
	defer func() { close(stop); readers.Wait() }()

	var seen int64
	for k := int64(1); ; k++ {
		// While outputs flow, each sweep period holds at least one: once
		// tappers+1 taps were counted after the last sweep, one tapper
		// counted twice, and its second Tap began after that sweep.
		done := stopped.Load()
		for !done && taps.Load() <= seen+tappers {
			runtime.Gosched()
			done = stopped.Load()
		}
		at := time.Duration(k) * period
		clk.set(at)
		ev := m.Advance(clk.now())
		seen = taps.Load()
		if len(ev) == 0 {
			if done && at > time.Duration(lastAfter.Load())+deadline+3*period {
				t.Fatalf("no silence trip %v after the last output", at-time.Duration(lastAfter.Load()))
			}
			continue
		}
		if !done {
			t.Fatalf("tripped while outputs were still coming: %+v", ev)
		}
		if len(ev) != 1 || ev[0].Up || ev[0].Reason != "silence" {
			t.Fatalf("events = %+v, want one down(silence)", ev)
		}
		if early := time.Duration(lastBefore.Load()) + deadline; at <= early {
			t.Errorf("tripped at %v, not after the last output (>= %v) plus the deadline", at, time.Duration(lastBefore.Load()))
		}
		if late := time.Duration(lastAfter.Load()) + deadline + 2*period; at > late {
			t.Errorf("tripped at %v, later than %v: the last output (<= %v) plus deadline plus two sweeps",
				at, late, time.Duration(lastAfter.Load()))
		}
		return
	}
}
