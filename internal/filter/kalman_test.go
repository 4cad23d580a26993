package filter

import (
	"math"
	"testing"
	"time"

	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/positioning"
)

func kfPosition(e, n float64, at time.Time, acc float64) core.Sample {
	pos := positioning.Position{
		Time:     at,
		Local:    geo.ENU{East: e, North: n},
		HasLocal: true,
		Accuracy: acc,
	}
	return core.NewSample(positioning.KindPosition, pos, at)
}

func TestKalmanSmoothsStationaryNoise(t *testing.T) {
	kf := NewKalmanFilter("kf", 0.3, nil)
	var last positioning.Position
	emit := func(s core.Sample) { last = s.Payload.(positioning.Position) }
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 50; i++ {
		e := 10 + 4*math.Sin(float64(i)*2.1)
		n := 5 + 4*math.Cos(float64(i)*1.3)
		if err := kf.Process(0, kfPosition(e, n, at, 4), emit); err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Second)
	}
	d := last.Local.Distance(geo.ENU{East: 10, North: 5})
	if d > 2.5 {
		t.Errorf("converged estimate %.2f m from truth, want <= 2.5 m", d)
	}
	if last.Source != "kalman" {
		t.Errorf("source = %q", last.Source)
	}
	if kf.emitted != 50 {
		t.Errorf("emitted = %d", kf.emitted)
	}
}

func TestKalmanTracksConstantVelocity(t *testing.T) {
	kf := NewKalmanFilter("kf", 0.5, nil)
	var last positioning.Position
	emit := func(s core.Sample) { last = s.Payload.(positioning.Position) }
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	// Target moves east at 1.5 m/s with modest noise.
	for i := 0; i < 60; i++ {
		e := 1.5*float64(i) + 2*math.Sin(float64(i)*2.7)
		if err := kf.Process(0, kfPosition(e, 0, at, 2), emit); err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Second)
	}
	truth := geo.ENU{East: 1.5 * 59, North: 0}
	if d := last.Local.Distance(truth); d > 3 {
		t.Errorf("lagging estimate: %.2f m behind truth", d)
	}
}

func TestKalmanUncertaintyShrinks(t *testing.T) {
	kf := NewKalmanFilter("kf", 0.3, nil)
	var accs []float64
	emit := func(s core.Sample) {
		accs = append(accs, s.Payload.(positioning.Position).Accuracy)
	}
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		if err := kf.Process(0, kfPosition(0, 0, at, 5), emit); err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Second)
	}
	if accs[len(accs)-1] >= accs[0] {
		t.Errorf("accuracy did not improve: %v -> %v", accs[0], accs[len(accs)-1])
	}
	if accs[len(accs)-1] <= 0 {
		t.Error("non-positive accuracy")
	}
}

func TestKalmanIgnoresUnusableInput(t *testing.T) {
	kf := NewKalmanFilter("kf", 0, nil)
	emitted := 0
	emit := func(core.Sample) { emitted++ }
	// Non-position payload.
	if err := kf.Process(0, core.NewSample(positioning.KindPosition, 1, time.Time{}), emit); err != nil {
		t.Fatal(err)
	}
	// Position without a local frame.
	pos := positioning.Position{Global: geo.Point{Lat: 56, Lon: 10}}
	if err := kf.Process(0, core.NewSample(positioning.KindPosition, pos, time.Time{}), emit); err != nil {
		t.Fatal(err)
	}
	if emitted != 0 {
		t.Errorf("emitted %d from unusable input", emitted)
	}
}

func TestKalmanHandlesTimeGaps(t *testing.T) {
	kf := NewKalmanFilter("kf", 0.5, nil)
	var last positioning.Position
	emit := func(s core.Sample) { last = s.Payload.(positioning.Position) }
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	if err := kf.Process(0, kfPosition(0, 0, at, 3), emit); err != nil {
		t.Fatal(err)
	}
	// A ten-minute gap (duty-cycled GPS) must not explode the filter.
	at = at.Add(10 * time.Minute)
	if err := kf.Process(0, kfPosition(100, 0, at, 3), emit); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(last.Local.East) || math.IsInf(last.Local.East, 0) {
		t.Fatalf("estimate diverged: %v", last.Local)
	}
	if d := last.Local.Distance(geo.ENU{East: 100, North: 0}); d > 60 {
		t.Errorf("estimate %.1f m from new fix after gap", d)
	}
}
