package main

import (
	"fmt"
	"math"
	"time"

	"perpos/internal/positioning"
)

// checkIdentical reports whether got holds exactly the positions of
// want, bit for bit: same count, same timestamps, and the same bits in
// every coordinate and estimate.
func checkIdentical(got, want []positioning.Position) error {
	if len(want) < checkPositions {
		return fmt.Errorf("reference produced %d positions, want %d", len(want), checkPositions)
	}
	if len(got) != len(want) {
		return fmt.Errorf("delivered %d positions, reference %d", len(got), len(want))
	}
	for i := range want {
		if !samePosition(got[i], want[i]) {
			return fmt.Errorf("position %d differs: got %v at %s, reference %v at %s",
				i, got[i], got[i].Time.Format(time.RFC3339Nano), want[i], want[i].Time.Format(time.RFC3339Nano))
		}
	}
	return nil
}

func samePosition(a, b positioning.Position) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Time.Equal(b.Time) &&
		same(a.Global.Lat, b.Global.Lat) && same(a.Global.Lon, b.Global.Lon) && same(a.Global.Alt, b.Global.Alt) &&
		same(a.Local.East, b.Local.East) && same(a.Local.North, b.Local.North) &&
		a.HasLocal == b.HasLocal && a.Floor == b.Floor && same(a.Accuracy, b.Accuracy) &&
		a.Source == b.Source && a.RoomID == b.RoomID
}

// The E5 particle-filter band (EXPERIMENTS.md, E5: indoor corridor
// walk, noisy-GPS regime): indoors, the fused pipeline's horizontal
// error must not exceed the filter's measured median and p95.
const (
	bandP50 = 9.0
	bandP95 = 24.6
)

// checkBand reports whether the errors (metres) of positions delivered
// indoors stay inside the E5 particle-filter band.
func checkBand(errs []float64) error {
	if len(errs) == 0 {
		return fmt.Errorf("no positions delivered")
	}
	p50 := percentile(append([]float64(nil), errs...), 0.5)
	p95 := percentile(append([]float64(nil), errs...), 0.95)
	if p50 > bandP50 || p95 > bandP95 {
		return fmt.Errorf("error p50 %.2f m / p95 %.2f m outside the E5 band (%.1f m / %.1f m)", p50, p95, bandP50, bandP95)
	}
	return nil
}

// maxResumeGap bounds how far past the last delivered timestamp a
// resumed target's next position may lie: the runner drains in-flight
// samples before the final checkpoint, so a rehydrated receiver goes
// on with the next epoch; a small slack covers epochs without a fix.
const maxResumeGap = 3

// checkContinuity reports whether a resumed target's next position
// continues from its last delivered one: strictly later and at most
// maxResumeGap epochs on. A restarted receiver would begin again at
// the track's first point after its cold start instead. A receiver
// that wrapped around its looping track may also restart at start.
func checkContinuity(last, next, start, end time.Time, epoch time.Duration) error {
	gap := next.Sub(last)
	if gap > 0 && gap <= maxResumeGap*epoch {
		return nil
	}
	if next.Equal(start) && last.Add(epoch).After(end) {
		return nil
	}
	return fmt.Errorf("resumed at %s after last delivery at %s (gap %v)",
		next.Format(time.RFC3339), last.Format(time.RFC3339), gap)
}
