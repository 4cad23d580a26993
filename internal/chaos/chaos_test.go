package chaos

import (
	"context"
	"errors"
	"testing"
	"time"

	"perpos/internal/core"
)

const kindRaw = core.Kind("test.raw")

// passthrough is a minimal component for wrapping.
type passthrough struct{ id string }

func (p *passthrough) ID() string { return p.id }
func (p *passthrough) Spec() core.Spec {
	return core.Spec{
		Name:   "pass",
		Inputs: []core.PortSpec{{Name: "in", Accepts: []core.Kind{kindRaw}}},
		Output: core.OutputSpec{Kind: kindRaw},
	}
}
func (p *passthrough) Process(_ int, in core.Sample, emit core.Emit) error {
	emit(in)
	return nil
}

// collect runs n samples through the wrapped component and counts the
// emissions.
func collect(t *testing.T, c core.Component, n int) (emitted int, errs int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := c.Process(0, core.NewSample(kindRaw, i, time.Time{}), func(core.Sample) { emitted++ })
		if err != nil {
			errs++
		}
	}
	return emitted, errs
}

func TestWrapPreservesIdentity(t *testing.T) {
	inner := &passthrough{id: "mid"}
	w := WrapComponent(inner)
	if w.ID() != "mid" {
		t.Errorf("ID = %q, want %q", w.ID(), "mid")
	}
	if w.Spec().Name != inner.Spec().Name {
		t.Errorf("Spec.Name = %q, want %q", w.Spec().Name, inner.Spec().Name)
	}
	if w.inner != inner {
		t.Error("the wrapper lost the wrapped component")
	}
}

func TestCorruptRewritesSamples(t *testing.T) {
	w := WrapComponent(&passthrough{id: "mid"},
		WithCorrupt(1.0, func(s core.Sample) core.Sample {
			s.Payload = -1
			return s
		}))
	var got []int
	for i := 0; i < 3; i++ {
		if err := w.Process(0, core.NewSample(kindRaw, i, time.Time{}), func(s core.Sample) {
			got = append(got, s.Payload.(int))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range got {
		if v != -1 {
			t.Errorf("sample %d payload = %d, want corrupted -1", i, v)
		}
	}
}

func TestErrorEvery(t *testing.T) {
	w := WrapComponent(&passthrough{id: "mid"}, WithErrorEvery(3))
	emitted, errs := collect(t, w, 9)
	if errs != 3 {
		t.Errorf("errors = %d, want 3 (every 3rd of 9)", errs)
	}
	if emitted != 6 {
		t.Errorf("emitted = %d, want 6", emitted)
	}
}

func TestKillHealComponent(t *testing.T) {
	w := WrapComponent(&passthrough{id: "mid"})
	w.Kill(nil)
	if !w.inj.down() {
		t.Fatal("down() = false after Kill")
	}
	err := w.Process(0, core.NewSample(kindRaw, 0, time.Time{}), func(core.Sample) {})
	if !errors.Is(err, ErrDown) {
		t.Fatalf("Process while down = %v, want ErrDown", err)
	}
	custom := errors.New("antenna fell off")
	w.Kill(custom)
	if err := w.Process(0, core.NewSample(kindRaw, 0, time.Time{}), func(core.Sample) {}); !errors.Is(err, custom) {
		t.Fatalf("Process = %v, want custom kill error", err)
	}
	w.Heal()
	if w.inj.down() {
		t.Fatal("down() = true after Heal")
	}
	if err := w.Process(0, core.NewSample(kindRaw, 0, time.Time{}), func(core.Sample) {}); err != nil {
		t.Fatalf("Process after Heal = %v", err)
	}
}

// sliceSource builds a SliceSource of n raw samples.
func sliceSource(id string, n int) *core.SliceSource {
	samples := make([]core.Sample, n)
	for i := range samples {
		samples[i] = core.NewSample(kindRaw, i, time.Time{})
	}
	return &core.SliceSource{CompID: id, Out: core.OutputSpec{Kind: kindRaw}, Samples: samples}
}

func TestSourceDiesAndRestarts(t *testing.T) {
	s := WrapSource(sliceSource("src", 4))
	emit := func(core.Sample) {}

	if more, err := s.Step(emit); !more || err != nil {
		t.Fatalf("healthy Step = (%v, %v)", more, err)
	}
	s.Kill(nil)
	more, err := s.Step(emit)
	if more || !errors.Is(err, ErrDown) {
		t.Fatalf("killed Step = (%v, %v), want (false, ErrDown)", more, err)
	}
	if rerr := s.Restart(); !errors.Is(rerr, ErrDown) {
		t.Fatalf("Restart while down = %v, want ErrDown", rerr)
	}
	s.Heal()
	if rerr := s.Restart(); rerr != nil {
		t.Fatalf("Restart after Heal = %v, want nil", rerr)
	}
	got := 0
	for {
		more, err := s.Step(func(core.Sample) { got++ })
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	if got == 0 {
		t.Error("no samples after restart")
	}
}

func TestChaosSourceUnderRunnerRestarts(t *testing.T) {
	// End-to-end with the engine: a killed source dies, the started
	// graph backs off and restarts it after Heal, and the stream
	// completes.
	g := core.New()
	src := WrapSource(sliceSource("src", 5))
	if _, err := g.Add(src); err != nil {
		t.Fatal(err)
	}
	sink := core.NewSink("app", []core.Kind{kindRaw})
	if _, err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("src", "app", 0); err != nil {
		t.Fatal(err)
	}

	src.Kill(nil)
	if err := g.Start(context.Background(),
		core.WithSourceRestart(core.RestartPolicy{Base: time.Millisecond, Max: 5 * time.Millisecond})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let a few restart attempts fail
	src.Heal()
	g.WaitSources()
	if err := g.Stop(); err == nil {
		t.Error("Stop = nil, want the injected outage errors")
	}
	if sink.Len() != 5 {
		t.Errorf("sink received %d, want all 5 after recovery", sink.Len())
	}
}
