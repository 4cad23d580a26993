package main

import (
	"math/rand"
	"time"
)

// schedule is an open-loop pacer: the k-th operation of one generator
// goroutine is due at an instant fixed before the run starts, whatever
// happened to the operations before it. A stall therefore delays — and
// is charged to — every operation that fell due during it, instead of
// silently lowering the offered load as a closed loop would.
type schedule struct {
	start  time.Time
	period time.Duration   // length of one cycle
	phases []time.Duration // sorted offsets of the cycle's slots
}

// due returns when the k-th operation is due and which slot of the
// cycle it serves.
func (s schedule) due(k int) (time.Time, int) {
	n := len(s.phases)
	cycle, slot := k/n, k%n
	return s.start.Add(time.Duration(cycle)*s.period + s.phases[slot]), slot
}

// randomPhases draws n slot offsets in [0, period), one uniformly
// inside each of n equal strata, so they come out sorted — a generator
// walking them in order issues increasing due times — and never bunch
// up more than two to a stratum. Independent uniform phases would let
// the seed decide how bursty the offered load is.
func randomPhases(rng *rand.Rand, n int, period time.Duration) []time.Duration {
	ps := make([]time.Duration, n)
	stratum := float64(period) / float64(n)
	for i := range ps {
		ps[i] = time.Duration((float64(i) + rng.Float64()) * stratum)
	}
	return ps
}

// waitUntil sleeps until due (when it is still ahead) and returns how
// late the caller is on return — the generator's lateness for the
// operation it is about to issue.
func waitUntil(due time.Time) time.Duration {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	return time.Since(due)
}
