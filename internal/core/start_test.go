package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The TestRunner* tests state the contract of a started graph: the
// live engine of Graph.Start, Pause, Stop and WaitSources.

func TestRunnerDeliversEverything(t *testing.T) {
	g, sink := buildLinear(t, 50)
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.WaitSources()
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 50 {
		t.Errorf("sink received %d, want 50", sink.Len())
	}
	// Order along a single path must be preserved.
	for i, s := range sink.Received() {
		if s.Payload.(int) != i {
			t.Fatalf("sample %d payload = %v (out of order)", i, s.Payload)
		}
	}
}

func TestRunnerMultipleSources(t *testing.T) {
	g := New()
	mustAdd(t, g, source("a", 20))
	mustAdd(t, g, source("b", 20))
	merge := &FuncComponent{
		CompID: "merge",
		CompSpec: Spec{
			Inputs: []PortSpec{
				{Name: "a", Accepts: []Kind{kindRaw}},
				{Name: "b", Accepts: []Kind{kindRaw}},
			},
			Output: OutputSpec{Kind: kindPos},
		},
		Fn: func(_ int, in Sample, emit Emit) error {
			out := in
			out.Kind = kindPos
			emit(out)
			return nil
		},
	}
	mustAdd(t, g, merge)
	sink := NewSink("app", []Kind{kindPos})
	mustAdd(t, g, sink)
	if err := g.Connect("a", "merge", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("b", "merge", 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("merge", "app", 0); err != nil {
		t.Fatal(err)
	}

	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.WaitSources()
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 40 {
		t.Errorf("sink received %d, want 40", sink.Len())
	}
}

func TestRunnerFreezesStructure(t *testing.T) {
	g, _ := buildLinear(t, 1000)
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := g.Stop(); err != nil {
			t.Fatal(err)
		}
	}()

	if _, err := g.Add(source("late", 1)); !errors.Is(err, ErrRunning) {
		t.Errorf("Add while running = %v, want ErrRunning", err)
	}
	if err := g.Connect("src", "app", 0); !errors.Is(err, ErrRunning) {
		t.Errorf("Connect while running = %v, want ErrRunning", err)
	}
	if err := g.Remove("mid"); !errors.Is(err, ErrRunning) {
		t.Errorf("Remove while running = %v, want ErrRunning", err)
	}
	if err := g.Disconnect("mid", "app", 0); !errors.Is(err, ErrRunning) {
		t.Errorf("Disconnect while running = %v, want ErrRunning", err)
	}
}

func TestRunnerDoubleStart(t *testing.T) {
	g, _ := buildLinear(t, 1)
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); !errors.Is(err, ErrRunning) {
		t.Errorf("second Start = %v, want ErrRunning", err)
	}
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerStopIdempotent(t *testing.T) {
	g, _ := buildLinear(t, 1)
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := g.Stop(); err != nil {
		t.Errorf("second Stop = %v, want nil", err)
	}
}

func TestRunnerRestartAfterStop(t *testing.T) {
	g, sink := buildLinear(t, 5)
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.WaitSources()
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}

	// Structure is mutable again, and a second Start works.
	if err := g.Disconnect("mid", "app", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("mid", "app", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 5 {
		t.Errorf("sink received %d, want 5", sink.Len())
	}
}

func TestRunnerContextCancelStopsSources(t *testing.T) {
	g := New()
	mustAdd(t, g, &infiniteSource{id: "inf"})
	sink := NewSink("app", []Kind{kindRaw})
	mustAdd(t, g, sink)
	if err := g.Connect("inf", "app", 0); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	if err := g.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// Let it produce a bit, then cancel.
	deadline := time.Now().Add(2 * time.Second)
	for sink.Len() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() < 10 {
		t.Errorf("sink received %d, want >= 10", sink.Len())
	}
}

func TestRunnerSourceInterval(t *testing.T) {
	g, sink := buildLinear(t, 3)
	start := time.Now()
	if err := g.Start(context.Background(), WithSourceInterval(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	g.WaitSources()
	elapsed := time.Since(start)
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 3 {
		t.Errorf("sink received %d, want 3", sink.Len())
	}
	// 3 samples with 2 inter-sample gaps of >= 1ms.
	if elapsed < 2*time.Millisecond {
		t.Errorf("elapsed = %v, want >= 2ms with pacing", elapsed)
	}
}

func TestRunnerCollectsComponentErrors(t *testing.T) {
	g := New()
	mustAdd(t, g, source("src", 3))
	boom := errors.New("boom")
	bad := &FuncComponent{
		CompID: "bad",
		CompSpec: Spec{
			Inputs: []PortSpec{{Name: "in", Accepts: []Kind{kindRaw}}},
			Output: OutputSpec{Kind: kindPos},
		},
		Fn: func(int, Sample, Emit) error { return boom },
	}
	mustAdd(t, g, bad)
	if err := g.Connect("src", "bad", 0); err != nil {
		t.Fatal(err)
	}

	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.WaitSources()
	err := g.Stop()
	if !errors.Is(err, boom) {
		t.Errorf("Stop error = %v, want wrapped boom", err)
	}
}

func TestRunnerInjectWhileRunning(t *testing.T) {
	// Samples injected from outside (e.g. a remote bridge) flow through
	// the async engine as well.
	g, sink := buildLinear(t, 0)
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := g.Inject("src", NewSample(kindRaw, i, time.Time{})); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 10 {
		t.Errorf("sink received %d, want 10", sink.Len())
	}
}

// TestStepRefusedOnStartedGraph: a started graph's source jobs are its
// one engine, so StepAll, StepSource and Run fail with ErrRunning and
// step no source until Stop, also inside a Pause.
func TestStepRefusedOnStartedGraph(t *testing.T) {
	g := New()
	src := &countingSource{id: "a", total: 1 << 30}
	mustAdd(t, g, src)
	// A period that never elapses: the job steps once, at Start.
	if err := g.Start(context.Background(), WithSourceInterval(time.Hour)); err != nil {
		t.Fatal(err)
	}
	waitSteps(t, src, 1)
	refused := func(when string) {
		t.Helper()
		if more, err := g.StepAll(); more || !errors.Is(err, ErrRunning) {
			t.Errorf("StepAll %s = %v, %v; want false, ErrRunning", when, more, err)
		}
		if more, err := g.StepSource("a"); more || !errors.Is(err, ErrRunning) {
			t.Errorf("StepSource %s = %v, %v; want false, ErrRunning", when, more, err)
		}
		if ticks, err := g.Run(3); ticks != 0 || !errors.Is(err, ErrRunning) {
			t.Errorf("Run %s = %d, %v; want 0, ErrRunning", when, ticks, err)
		}
	}
	refused("on a started graph")
	if err := g.Pause(func() error { refused("inside a Pause"); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := src.steps.Load(); got != 1 {
		t.Errorf("source stepped %d times, want only the job's 1", got)
	}
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	if more, err := g.StepAll(); !more || err != nil {
		t.Fatalf("StepAll after Stop = %v, %v; want true, nil", more, err)
	}
	if got := src.steps.Load(); got != 2 {
		t.Errorf("source stepped %d times after Stop's StepAll, want 2", got)
	}
}

// mergeGraph wires sources a and b into the two input ports of merge,
// and merge into a kindPos sink.
func mergeGraph(t *testing.T, a, b, merge Component) (*Graph, *Sink) {
	t.Helper()
	g := New()
	mustAdd(t, g, a)
	mustAdd(t, g, b)
	mustAdd(t, g, merge)
	sink := NewSink("app", []Kind{kindPos})
	mustAdd(t, g, sink)
	for _, c := range []struct {
		from, to string
		port     int
	}{{"a", "merge", 0}, {"b", "merge", 1}, {"merge", "app", 0}} {
		if err := g.Connect(c.from, c.to, c.port); err != nil {
			t.Fatal(err)
		}
	}
	return g, sink
}

// mergeComponent forwards either input as kindPos, running fn first.
func mergeComponent(fn func(port int)) *FuncComponent {
	return &FuncComponent{
		CompID: "merge",
		CompSpec: Spec{
			Inputs: []PortSpec{
				{Name: "a", Accepts: []Kind{kindRaw}},
				{Name: "b", Accepts: []Kind{kindRaw}},
			},
			Output: OutputSpec{Kind: kindPos},
		},
		Fn: func(port int, in Sample, emit Emit) error {
			fn(port)
			out := in
			out.Kind = kindPos
			emit(out)
			return nil
		},
	}
}

func TestRunnerMergeNeverRunsConcurrently(t *testing.T) {
	const n = 300
	var inflight, overlaps atomic.Int64
	merge := mergeComponent(func(int) {
		if inflight.Add(1) > 1 {
			overlaps.Add(1)
		}
		runtime.Gosched()
		inflight.Add(-1)
	})
	g, sink := mergeGraph(t, &countingSource{id: "a", total: n}, &countingSource{id: "b", total: n}, merge)
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	injected := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := g.Inject("a", NewSample(kindRaw, -i, time.Time{})); err != nil {
				injected <- err
				return
			}
		}
		injected <- nil
	}()
	if err := <-injected; err != nil {
		t.Fatal(err)
	}
	g.WaitSources()
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := overlaps.Load(); got != 0 {
		t.Errorf("merge entered concurrently %d times, want 0", got)
	}
	if got := sink.Len(); got != 3*n {
		t.Errorf("sink received %d, want %d", got, 3*n)
	}
}

func TestRunnerBlockedBranchDoesNotStallOthers(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	block := &FuncComponent{
		CompID: "a",
		CompSpec: Spec{
			Inputs: []PortSpec{{Name: "in", Accepts: []Kind{kindRaw}}},
			Output: OutputSpec{Kind: kindRaw},
		},
		Fn: func(_ int, in Sample, emit Emit) error {
			select {
			case entered <- struct{}{}:
				<-release
			default:
			}
			emit(in)
			return nil
		},
	}
	var fromB atomic.Int64
	merge := mergeComponent(func(port int) {
		if port == 1 {
			fromB.Add(1)
		}
	})
	// The blocking component sits on the first branch: src -> a -> merge.
	g, _ := mergeGraph(t, block, &countingSource{id: "b", total: 50}, merge)
	mustAdd(t, g, &infiniteSource{id: "src"})
	if err := g.Connect("src", "a", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-entered
	deadline := time.Now().Add(5 * time.Second)
	for fromB.Load() < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := fromB.Load(); got != 50 {
		t.Errorf("b's branch delivered %d while a's was blocked, want 50", got)
	}
}

func TestRunnerStopWaitsForSources(t *testing.T) {
	g := New()
	a, b := &countingSource{id: "a", total: 1 << 30}, &countingSource{id: "b", total: 1 << 30}
	mustAdd(t, g, a)
	mustAdd(t, g, b)
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for a.steps.Load() < 10 || b.steps.Load() < 10 {
		time.Sleep(time.Millisecond)
	}
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	if a.active.Load() != 0 || b.active.Load() != 0 {
		t.Fatal("a source was still inside Step after Stop returned")
	}
	stepped := a.steps.Load() + b.steps.Load()
	time.Sleep(5 * time.Millisecond)
	if got := a.steps.Load() + b.steps.Load(); got != stepped {
		t.Errorf("sources stepped %d more times after Stop returned", got-stepped)
	}
}

// countingSource emits `total` samples and counts its steps, and the
// steps in progress.
type countingSource struct {
	id     string
	total  int
	steps  atomic.Int64
	active atomic.Int64
}

var _ Producer = (*countingSource)(nil)

func (s *countingSource) ID() string { return s.id }

func (s *countingSource) Spec() Spec {
	return Spec{Name: s.id, Output: OutputSpec{Kind: kindRaw}}
}

func (s *countingSource) Process(int, Sample, Emit) error { return nil }

func (s *countingSource) Step(emit Emit) (bool, error) {
	s.active.Add(1)
	defer s.active.Add(-1)
	n := int(s.steps.Add(1))
	emit(NewSample(kindRaw, n, time.Time{}))
	return n < s.total, nil
}

// infiniteSource emits forever; used for cancellation tests.
type infiniteSource struct {
	id string
	n  atomic.Int64
}

var _ Producer = (*infiniteSource)(nil)

func (s *infiniteSource) ID() string { return s.id }

func (s *infiniteSource) Spec() Spec {
	return Spec{Name: s.id, Output: OutputSpec{Kind: kindRaw}}
}

func (s *infiniteSource) Process(int, Sample, Emit) error { return nil }

func (s *infiniteSource) Step(emit Emit) (bool, error) {
	emit(NewSample(kindRaw, int(s.n.Add(1)), time.Time{}))
	return true, nil
}

// waitSteps waits until src has stepped at least n times.
func waitSteps(t *testing.T, src *countingSource, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for src.steps.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("source %q stepped %d times, want >= %d", src.id, src.steps.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunnerPauseFollowsSourceEdits: fn runs with the structure
// unfrozen and no source stepping, and afterwards the graph drives
// exactly the producers fn left, each on its own pacing.
func TestRunnerPauseFollowsSourceEdits(t *testing.T) {
	live := func(id string) *countingSource { return &countingSource{id: id, total: 1 << 30} }
	start := func(t *testing.T, g *Graph, opts ...StartOption) {
		t.Helper()
		if err := g.Start(context.Background(), opts...); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = g.Stop() })
	}

	t.Run("remove", func(t *testing.T) {
		g := New()
		a, b := live("a"), live("b")
		mustAdd(t, g, a)
		mustAdd(t, g, b)
		start(t, g, WithSourceInterval(time.Millisecond))
		waitSteps(t, a, 3)
		if err := g.Pause(func() error { return g.Remove("a") }); err != nil {
			t.Fatal(err)
		}
		stepped := a.steps.Load()
		waitSteps(t, b, b.steps.Load()+5)
		if got := a.steps.Load(); got != stepped {
			t.Errorf("removed source stepped %d more times", got-stepped)
		}
	})

	t.Run("add", func(t *testing.T) {
		g := New()
		a, c := live("a"), live("c")
		mustAdd(t, g, a)
		start(t, g, WithSourceInterval(time.Millisecond))
		waitSteps(t, a, 3)
		err := g.Pause(func() error {
			_, err := g.Add(c)
			return err
		})
		if err != nil {
			t.Fatalf("Add inside Pause = %v, want nil", err)
		}
		if _, err := g.Add(live("late")); !errors.Is(err, ErrRunning) {
			t.Errorf("Add after Pause = %v, want ErrRunning", err)
		}
		waitSteps(t, c, 5)
	})

	t.Run("replace", func(t *testing.T) {
		g := New()
		old, repl := live("a"), live("a")
		mustAdd(t, g, old)
		start(t, g, WithSourceInterval(time.Millisecond))
		waitSteps(t, old, 3)
		err := g.Pause(func() error {
			if err := g.Remove("a"); err != nil {
				return err
			}
			_, err := g.Add(repl)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		stepped := old.steps.Load()
		waitSteps(t, repl, 5)
		if got := old.steps.Load(); got != stepped {
			t.Errorf("replaced node stepped %d more times", got-stepped)
		}
	})

	t.Run("exhausted", func(t *testing.T) {
		g := New()
		once, b := &countingSource{id: "once", total: 1}, live("b")
		mustAdd(t, g, once)
		mustAdd(t, g, b)
		start(t, g, WithSourceInterval(time.Millisecond))
		waitSteps(t, once, 1)
		for i := 0; i < 5; i++ {
			if err := g.Pause(func() error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		waitSteps(t, b, b.steps.Load()+5)
		if got := once.steps.Load(); got != 1 {
			t.Errorf("exhausted source stepped %d times, want 1", got)
		}
	})

	t.Run("keeps pacing", func(t *testing.T) {
		// A period that never elapses: every step after the first would
		// be one a pause added.
		g := New()
		a := live("a")
		mustAdd(t, g, a)
		start(t, g, WithSourceInterval(time.Hour))
		waitSteps(t, a, 1)
		for i := 0; i < 5; i++ {
			if err := g.Pause(func() error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond)
		if got := a.steps.Load(); got != 1 {
			t.Errorf("source stepped %d times across 5 pauses, want 1", got)
		}
	})

	t.Run("backoff", func(t *testing.T) {
		g := New()
		d := &dyingSource{id: "d", failures: 1 << 30}
		mustAdd(t, g, d)
		start(t, g, WithSourceRestart(RestartPolicy{Base: time.Millisecond, Max: time.Millisecond}))
		counts := func() (int, int) {
			d.mu.Lock()
			defer d.mu.Unlock()
			return d.fails, d.restarts
		}
		deadline := time.Now().Add(5 * time.Second)
		for _, restarts := counts(); restarts < 3; _, restarts = counts() {
			if time.Now().After(deadline) {
				t.Fatal("source never restarted")
			}
			time.Sleep(time.Millisecond)
		}
		var before, after [2]int
		err := g.Pause(func() error {
			before[0], before[1] = counts()
			time.Sleep(20 * time.Millisecond)
			after[0], after[1] = counts()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if before != after {
			t.Errorf("steps/restarts moved from %v to %v while paused", before, after)
		}
		for _, restarts := counts(); restarts <= after[1]; _, restarts = counts() {
			if time.Now().After(deadline) {
				t.Fatal("source never restarted after the pause")
			}
			time.Sleep(time.Millisecond)
		}
	})

	t.Run("wait sources", func(t *testing.T) {
		// A source a Pause starts after the first one was exhausted is
		// waited for too, also by a WaitSources already waiting.
		g := New()
		a, b := &countingSource{id: "a", total: 3}, &countingSource{id: "b", total: 3}
		mustAdd(t, g, a)
		start(t, g, WithSourceInterval(time.Millisecond))
		waited := make(chan struct{})
		go func() {
			g.WaitSources()
			close(waited)
		}()
		waitSteps(t, a, 3)
		err := g.Pause(func() error {
			_, err := g.Add(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		g.WaitSources()
		if got := b.steps.Load(); got != 3 {
			t.Errorf("WaitSources returned after %d of the added source's 3 steps", got)
		}
		<-waited
	})

	t.Run("racing stop", func(t *testing.T) {
		for i := 0; i < 20; i++ {
			g := New()
			a := live("a")
			mustAdd(t, g, a)
			if err := g.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			added := live("c")
			done := make(chan error, 1)
			go func() {
				done <- g.Pause(func() error {
					_, err := g.Add(added)
					return err
				})
			}()
			if err := g.Stop(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if _, err := g.Add(live("after")); err != nil {
				t.Fatalf("Add after Pause and Stop = %v, want nil (graph unfrozen)", err)
			}
			stepped := a.steps.Load() + added.steps.Load()
			time.Sleep(2 * time.Millisecond)
			if got := a.steps.Load() + added.steps.Load(); got != stepped {
				t.Fatalf("sources stepped %d more times after Pause and Stop returned", got-stepped)
			}
		}
	})
}
