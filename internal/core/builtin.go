package core

import (
	"encoding/json"
	"sync"
)

// FuncComponent adapts a plain function into a Processing Component.
// It is the quickest way to write small transform steps and test
// fixtures.
type FuncComponent struct {
	CompID   string
	CompSpec Spec
	// Fn handles one input sample. A nil Fn forwards samples unchanged
	// (kind rewritten to the output kind).
	Fn func(port int, in Sample, emit Emit) error
}

var _ Component = (*FuncComponent)(nil)

// ID implements Component.
func (f *FuncComponent) ID() string { return f.CompID }

// Spec implements Component.
func (f *FuncComponent) Spec() Spec { return f.CompSpec }

// Process implements Component.
func (f *FuncComponent) Process(port int, in Sample, emit Emit) error {
	if f.Fn == nil {
		out := in
		out.Kind = f.CompSpec.Output.Kind
		emit(out)
		return nil
	}
	return f.Fn(port, in, emit)
}

// NewTransform returns a single-input single-output component that
// applies fn to each payload. fn returning keep=false drops the sample.
func NewTransform(id string, accepts, produces Kind, fn func(in Sample) (Sample, bool)) *FuncComponent {
	return &FuncComponent{
		CompID: id,
		CompSpec: Spec{
			Name:   id,
			Inputs: []PortSpec{{Name: "in", Accepts: []Kind{accepts}}},
			Output: OutputSpec{Kind: produces},
		},
		Fn: func(_ int, in Sample, emit Emit) error {
			out, keep := fn(in)
			if !keep {
				return nil
			}
			out.Kind = produces
			emit(out)
			return nil
		},
	}
}

// NewFilter returns a component that forwards samples of the given kind
// only when pred returns true — the shape of the §3.1 satellite filter.
func NewFilter(id string, kind Kind, pred func(in Sample) bool) *FuncComponent {
	return NewTransform(id, kind, kind, func(in Sample) (Sample, bool) {
		return in, pred(in)
	})
}

// Sink is the application root of the processing tree: it records
// delivered samples and invokes an optional callback. Sink is safe for
// concurrent use so it works under the async engine.
type Sink struct {
	id       string
	accepts  []Kind
	features []string // AcceptsFeatures for the single input port
	keep     int      // max samples retained (ring); 0 = unbounded

	mu       sync.Mutex
	received []Sample
	start    int // ring head (oldest) once keep is reached
	onSample func(Sample)
}

var _ Component = (*Sink)(nil)

// SinkOption configures a Sink.
type SinkOption func(*Sink)

// WithCallback invokes fn for every delivered sample (after recording).
func WithCallback(fn func(Sample)) SinkOption {
	return func(s *Sink) { s.onSample = fn }
}

// WithAcceptedFeatures makes the sink's input port accept data emitted
// by the named Component Features.
func WithAcceptedFeatures(names ...string) SinkOption {
	return func(s *Sink) { s.features = names }
}

// WithKeep bounds the sink's recording to the n most recent samples
// (ring semantics). Without it the sink records everything, which grows
// without limit — fine for tests and short replays, wrong for sinks on
// a long-running hot path.
func WithKeep(n int) SinkOption {
	return func(s *Sink) {
		if n > 0 {
			s.keep = n
		}
	}
}

// NewSink returns an application sink accepting the given kinds
// (defaults to every kind when none is given).
func NewSink(id string, accepts []Kind, opts ...SinkOption) *Sink {
	if len(accepts) == 0 {
		accepts = []Kind{KindAny}
	}
	s := &Sink{id: id, accepts: accepts}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// ID implements Component.
func (s *Sink) ID() string { return s.id }

// Spec implements Component.
func (s *Sink) Spec() Spec {
	return Spec{
		Name: s.id,
		Inputs: []PortSpec{{
			Name:            "in",
			Accepts:         s.accepts,
			AcceptsFeatures: s.features,
		}},
	}
}

// Process implements Component.
func (s *Sink) Process(_ int, in Sample, _ Emit) error {
	s.mu.Lock()
	if s.keep > 0 && len(s.received) >= s.keep {
		s.received[s.start] = in
		s.start++
		if s.start == len(s.received) {
			s.start = 0
		}
	} else {
		s.received = append(s.received, in)
	}
	cb := s.onSample
	s.mu.Unlock()
	if cb != nil {
		cb(in)
	}
	return nil
}

// Received returns a copy of the recorded samples in delivery order
// (all of them, or the most recent WithKeep window).
func (s *Sink) Received() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, len(s.received))
	out = append(out, s.received[s.start:]...)
	out = append(out, s.received[:s.start]...)
	return out
}

// Last returns the most recently delivered sample, if any.
func (s *Sink) Last() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.received)
	if n == 0 {
		return Sample{}, false
	}
	return s.received[(s.start+n-1)%n], true
}

// Len returns the number of delivered samples.
func (s *Sink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.received)
}

// SliceSource is a Producer that emits a fixed sequence of samples, one
// per engine tick — the test-fixture equivalent of the paper's emulator
// component.
type SliceSource struct {
	CompID  string
	Out     OutputSpec
	Samples []Sample
	next    int
}

var _ Producer = (*SliceSource)(nil)

// ID implements Component.
func (s *SliceSource) ID() string { return s.CompID }

// Spec implements Component.
func (s *SliceSource) Spec() Spec {
	return Spec{Name: s.CompID, Output: s.Out}
}

// Process implements Component; sources receive no input.
func (s *SliceSource) Process(int, Sample, Emit) error { return nil }

// Step implements Producer.
func (s *SliceSource) Step(emit Emit) (bool, error) {
	if s.next >= len(s.Samples) {
		return false, nil
	}
	emit(s.Samples[s.next])
	s.next++
	return s.next < len(s.Samples), nil
}

// MarshalState implements StateAccess: the replay position, so a
// restored source continues where the checkpoint was taken.
func (s *SliceSource) MarshalState() ([]byte, error) {
	return json.Marshal(struct {
		Next int `json:"next"`
	}{s.next})
}

// UnmarshalState implements StateAccess.
func (s *SliceSource) UnmarshalState(data []byte) error {
	var st struct {
		Next int `json:"next"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	s.next = st.Next
	return nil
}
