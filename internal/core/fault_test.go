package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// panicComponent panics on every Nth Process call.
type panicComponent struct {
	id    string
	every int
	calls int
}

var _ Component = (*panicComponent)(nil)

func (p *panicComponent) ID() string { return p.id }

func (p *panicComponent) Spec() Spec {
	return Spec{
		Name:   "panicker",
		Inputs: []PortSpec{{Name: "in", Accepts: []Kind{kindRaw}}},
		Output: OutputSpec{Kind: kindRaw},
	}
}

func (p *panicComponent) Process(_ int, in Sample, emit Emit) error {
	p.calls++
	if p.every > 0 && p.calls%p.every == 0 {
		panic("injected component panic")
	}
	emit(in)
	return nil
}

// panicSource panics on its first Step.
type panicSource struct{ id string }

var _ Producer = (*panicSource)(nil)

func (p *panicSource) ID() string { return p.id }
func (p *panicSource) Spec() Spec {
	return Spec{Name: p.id, Output: OutputSpec{Kind: kindRaw}}
}
func (p *panicSource) Process(int, Sample, Emit) error { return nil }
func (p *panicSource) Step(Emit) (bool, error)         { panic("injected source panic") }

// panicConsumeFeature panics in its Consume hook.
type panicConsumeFeature struct{}

func (panicConsumeFeature) FeatureName() string { return "panic-consume" }
func (panicConsumeFeature) Consume(int, Sample) (Sample, bool) {
	panic("injected consume-hook panic")
}

// panicProduceFeature panics in its Produce hook.
type panicProduceFeature struct{}

func (panicProduceFeature) FeatureName() string { return "panic-produce" }
func (panicProduceFeature) Produce(Sample) (Sample, bool) {
	panic("injected produce-hook panic")
}

func TestProcessPanicContained(t *testing.T) {
	g := New()
	mustAdd(t, g, source("src", 3))
	bad := &panicComponent{id: "bad", every: 2} // panics on sample 2
	mustAdd(t, g, bad)
	sink := NewSink("app", []Kind{kindRaw})
	mustAdd(t, g, sink)
	if err := g.Connect("src", "bad", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("bad", "app", 0); err != nil {
		t.Fatal(err)
	}

	// Drive past the error: a contained panic must not stop the rest of
	// the stream from flowing.
	var runErr error
	for {
		more, err := g.StepAll()
		runErr = errors.Join(runErr, err)
		if !more {
			break
		}
	}
	if !errors.Is(runErr, ErrPanicked) {
		t.Fatalf("run error = %v, want wrapped ErrPanicked", runErr)
	}
	// The panic consumed one sample; the other two flowed through.
	if sink.Len() != 2 {
		t.Errorf("sink received %d, want 2 (panic contained per sample)", sink.Len())
	}
}

func TestStepPanicContained(t *testing.T) {
	g := New()
	mustAdd(t, g, &panicSource{id: "src"})
	sink := NewSink("app", []Kind{kindRaw})
	mustAdd(t, g, sink)
	if err := g.Connect("src", "app", 0); err != nil {
		t.Fatal(err)
	}

	more, err := g.StepAll()
	if !errors.Is(err, ErrPanicked) {
		t.Fatalf("StepAll error = %v, want wrapped ErrPanicked", err)
	}
	if more {
		t.Error("a panicking source must read as exhausted (more=false)")
	}
}

func TestConsumeHookPanicContained(t *testing.T) {
	g := New()
	mustAdd(t, g, source("src", 2))
	mid := mustAdd(t, g, NewTransform("mid", kindRaw, kindRaw, func(in Sample) (Sample, bool) {
		return in, true
	}))
	sink := NewSink("app", []Kind{kindRaw})
	mustAdd(t, g, sink)
	if err := g.Connect("src", "mid", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("mid", "app", 0); err != nil {
		t.Fatal(err)
	}
	if err := mid.AttachFeature(panicConsumeFeature{}); err != nil {
		t.Fatal(err)
	}

	_, err := g.Run(0)
	if !errors.Is(err, ErrPanicked) {
		t.Fatalf("Run error = %v, want wrapped ErrPanicked (hook panic contained)", err)
	}
	if sink.Len() != 0 {
		t.Errorf("sink received %d, want 0 (hook panicked before delivery)", sink.Len())
	}
	// The graph survives: detach the bad feature and run fresh data.
	if err := mid.DetachFeature("panic-consume"); err != nil {
		t.Fatal(err)
	}
	if err := g.Inject("src", NewSample(kindRaw, 99, time.Time{})); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 1 {
		t.Errorf("sink received %d after recovery, want 1", sink.Len())
	}
}

func TestProduceHookPanicContained(t *testing.T) {
	g := New()
	mustAdd(t, g, source("src", 1))
	sink := NewSink("app", []Kind{kindRaw})
	mustAdd(t, g, sink)
	if err := g.Connect("src", "app", 0); err != nil {
		t.Fatal(err)
	}
	srcNode, _ := g.Node("src")
	if err := srcNode.AttachFeature(panicProduceFeature{}); err != nil {
		t.Fatal(err)
	}

	// The produce hook runs inside the emitting node's step; its panic
	// is contained there.
	_, err := g.StepAll()
	if !errors.Is(err, ErrPanicked) {
		t.Fatalf("StepAll error = %v, want wrapped ErrPanicked", err)
	}
	if sink.Len() != 0 {
		t.Errorf("sink received %d, want 0", sink.Len())
	}
}

// dyingSource fails its first `failures` steps terminally (more=false
// with an error) and needs a Restart between attempts; afterwards it
// emits `total` samples.
type dyingSource struct {
	id       string
	failures int
	total    int

	mu       sync.Mutex
	fails    int
	restarts int
	emitted  int
	live     bool
}

var (
	_ Producer    = (*dyingSource)(nil)
	_ Restartable = (*dyingSource)(nil)
)

func (s *dyingSource) ID() string { return s.id }
func (s *dyingSource) Spec() Spec {
	return Spec{Name: s.id, Output: OutputSpec{Kind: kindRaw}}
}
func (s *dyingSource) Process(int, Sample, Emit) error { return nil }

func (s *dyingSource) Step(emit Emit) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.live && s.fails < s.failures {
		s.fails++
		return false, errors.New("device gone")
	}
	s.emitted++
	emit(NewSample(kindRaw, s.emitted, time.Time{}))
	return s.emitted < s.total, nil
}

func (s *dyingSource) Restart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.restarts++
	if s.fails < s.failures {
		return errors.New("still gone")
	}
	s.live = true
	return nil
}

// recordingObserver captures observer callbacks for assertions.
type recordingObserver struct {
	mu        sync.Mutex
	results   map[string][]error
	restarted []int
}

func (o *recordingObserver) Tap(string, Sample) {}

func (o *recordingObserver) Allow(string) bool { return true }

func (o *recordingObserver) Done(node string, _ time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.results == nil {
		o.results = make(map[string][]error)
	}
	o.results[node] = append(o.results[node], err)
}

func (o *recordingObserver) Restarted(_ string, attempt int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.restarted = append(o.restarted, attempt)
}

func TestRunnerRestartsFailedSource(t *testing.T) {
	g := New()
	src := &dyingSource{id: "src", failures: 2, total: 5}
	mustAdd(t, g, src)
	sink := NewSink("app", []Kind{kindRaw})
	mustAdd(t, g, sink)
	if err := g.Connect("src", "app", 0); err != nil {
		t.Fatal(err)
	}

	obs := &recordingObserver{}
	g.Observe(obs)
	if err := g.Start(context.Background(), WithSourceRestart(RestartPolicy{Base: time.Millisecond, Max: 5 * time.Millisecond})); err != nil {
		t.Fatal(err)
	}
	g.WaitSources()
	// Stop surfaces the step errors noted before the restarts landed.
	if err := g.Stop(); err == nil {
		t.Error("Stop = nil, want the source's pre-restart errors")
	}
	if sink.Len() != 5 {
		t.Errorf("sink received %d, want 5 (source restarted and finished)", sink.Len())
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.restarted) == 0 {
		t.Error("observer saw no Restarted")
	}
}

func TestRunnerCancelDuringRestartBackoff(t *testing.T) {
	g := New()
	// Fails forever, with a backoff far longer than the test: Stop must
	// interrupt the wait rather than sit out the delay (the backoff timer
	// is reused and stopped on exit, not leaked per attempt).
	src := &dyingSource{id: "src", failures: 1 << 30, total: 1}
	mustAdd(t, g, src)
	sink := NewSink("app", []Kind{kindRaw})
	mustAdd(t, g, sink)
	if err := g.Connect("src", "app", 0); err != nil {
		t.Fatal(err)
	}

	if err := g.Start(context.Background(), WithSourceRestart(RestartPolicy{Base: time.Minute})); err != nil {
		t.Fatal(err)
	}
	// Wait until the source has failed at least once, so the drive loop
	// is inside (or entering) the backoff select.
	deadline := time.Now().Add(5 * time.Second)
	for {
		src.mu.Lock()
		failed := src.fails > 0
		src.mu.Unlock()
		if failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("source never failed")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := g.Stop(); err == nil {
		t.Error("Stop = nil, want the source's terminal error")
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("Stop blocked %v waiting out the restart backoff", waited)
	}
}

func TestRunnerCleanExhaustionNeverRestarts(t *testing.T) {
	g := New()
	src := &dyingSource{id: "src", failures: 0, total: 3}
	src.live = true
	mustAdd(t, g, src)
	sink := NewSink("app", []Kind{kindRaw})
	mustAdd(t, g, sink)
	if err := g.Connect("src", "app", 0); err != nil {
		t.Fatal(err)
	}

	if err := g.Start(context.Background(), WithSourceRestart(RestartPolicy{Base: time.Millisecond})); err != nil {
		t.Fatal(err)
	}
	g.WaitSources()
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.restarts != 0 {
		t.Errorf("restarts = %d, want 0 for clean end of data", src.restarts)
	}
}

// blockingGate denies delivery to the named node.
type blockingGate struct {
	recordingObserver
	deny string
}

func (g *blockingGate) Allow(node string) bool { return node != g.deny }

func TestRunnerGateDropsQuarantined(t *testing.T) {
	g, sink := buildLinear(t, 10)
	g.Observe(&blockingGate{deny: "app"})
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.WaitSources()
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 0 {
		t.Errorf("sink received %d, want 0 (gated off)", sink.Len())
	}
}

func TestRestartPolicyDelay(t *testing.T) {
	p := RestartPolicy{Base: 10 * time.Millisecond, Max: 60 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		60 * time.Millisecond, // capped
		60 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}
