package filter

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"perpos/internal/building"
	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/positioning"
)

func truthENU() geo.ENU { return geo.ENU{East: 20, North: 6} }

// feed pushes i-indexed noisy measurements around truth into comp.
func feedPositions(t *testing.T, comp core.Component, from, to int, emit core.Emit) {
	t.Helper()
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC).Add(time.Duration(from) * time.Second)
	for i := from; i < to; i++ {
		e := 20 + 3*math.Sin(float64(i)*1.7)
		n := 6 + 3*math.Cos(float64(i)*2.3)
		if err := comp.Process(0, position(e, n, at, 4), emit); err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Second)
	}
}

// TestKalmanStateRoundTrip: a restored Kalman filter is bit-identical —
// feeding the same tail measurements yields exactly the estimates of an
// uninterrupted run.
func TestKalmanStateRoundTrip(t *testing.T) {
	ref := NewKalmanFilter("kf", 0, nil)
	var refLast positioning.Position
	feedPositions(t, ref, 0, 10, func(s core.Sample) { refLast = s.Payload.(positioning.Position) })

	half := NewKalmanFilter("kf", 0, nil)
	feedPositions(t, half, 0, 6, func(core.Sample) {})
	state, err := half.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	resumed := NewKalmanFilter("kf", 0, nil)
	if err := resumed.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	if resumed.emitted != 6 {
		t.Fatalf("restored emitted = %d, want 6", resumed.emitted)
	}
	var resLast positioning.Position
	feedPositions(t, resumed, 6, 10, func(s core.Sample) { resLast = s.Payload.(positioning.Position) })

	if resLast.Local != refLast.Local {
		t.Errorf("resumed estimate %+v != uninterrupted %+v", resLast.Local, refLast.Local)
	}
	if resLast.Accuracy != refLast.Accuracy {
		t.Errorf("resumed accuracy %v != uninterrupted %v", resLast.Accuracy, refLast.Accuracy)
	}
	if resumed.emitted != ref.emitted {
		t.Errorf("resumed emitted %d != uninterrupted %d", resumed.emitted, ref.emitted)
	}
}

// TestParticleStateRoundTrip: the population survives the round trip
// and the resumed filter stays within its own convergence bounds (the
// RNG restarts on a derived stream, so resumes are reproducible but not
// bit-identical with the uninterrupted run).
func TestParticleStateRoundTrip(t *testing.T) {
	b := building.Evaluation()
	half := NewParticleFilter("pf", b, Config{Particles: 300, Seed: 1})
	feedPositions(t, half, 0, 12, func(core.Sample) {})
	state, err := half.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	resume := func() positioning.Position {
		pf := NewParticleFilter("pf", b, Config{Particles: 300, Seed: 1})
		if err := pf.UnmarshalState(state); err != nil {
			t.Fatal(err)
		}
		if got := len(pf.Particles()); got != 300 {
			t.Fatalf("restored population = %d particles, want 300", got)
		}
		var last positioning.Position
		feedPositions(t, pf, 12, 24, func(s core.Sample) { last = s.Payload.(positioning.Position) })
		emitted, _, _ := pf.Stats()
		if emitted != 24 {
			t.Fatalf("resumed emitted = %d, want 24", emitted)
		}
		return last
	}

	first := resume()
	if d := first.Local.Distance(truthENU()); d > 3 {
		t.Errorf("resumed estimate %.2f m from truth, want <= 3 m", d)
	}
	// Determinism across resumes of the same checkpoint.
	second := resume()
	if first.Local != second.Local {
		t.Errorf("two resumes diverged: %+v vs %+v", first.Local, second.Local)
	}
}

// TestParticleRestoreValidatesPopulation: a restored population must
// hold the configured count once initialised (none before the first
// fix) and no negative weight. The filter resamples to the size it
// holds, so a 300-particle filter restored with 5 would keep 5.
func TestParticleRestoreValidatesPopulation(t *testing.T) {
	b := building.Evaluation()
	src := NewParticleFilter("pf", b, Config{Particles: 300, Seed: 1})
	feedPositions(t, src, 0, 6, func(core.Sample) {})
	full := src.Particles()

	for _, tc := range []struct {
		name        string
		initialized bool
		particles   []Particle
		ok          bool
	}{
		{"configured-count", true, full, true},
		{"fresh", false, nil, true},
		{"too-few", true, full[:5], false},
		{"too-many", true, append(append([]Particle(nil), full...), full[0]), false},
		{"empty-but-initialized", true, nil, false},
		{"particles-before-first-fix", false, full, false},
		{"negative-weight", true, append([]Particle{{Pos: full[0].Pos, W: -0.5}}, full[1:]...), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(particleState{Particles: tc.particles, Initialized: tc.initialized, Emitted: 6})
			if err != nil {
				t.Fatal(err)
			}
			pf := NewParticleFilter("pf", b, Config{Particles: 300, Seed: 1})
			err = pf.UnmarshalState(data)
			if !tc.ok {
				if err == nil {
					t.Fatalf("restored %d particles without error", len(tc.particles))
				}
				if emitted, _, _ := pf.Stats(); emitted != 0 || len(pf.Particles()) != 0 {
					t.Fatalf("refused restore changed the filter: emitted %d, %d particles", emitted, len(pf.Particles()))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := len(pf.Particles()); got != len(tc.particles) {
				t.Fatalf("restored %d particles, want %d", got, len(tc.particles))
			}
		})
	}
}
