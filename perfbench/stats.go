package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, the same rule as numpy's
// default. It sorts xs in place and returns NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

// tailSupported reports whether n samples put at least ten beyond the
// q-quantile — the least a reported tail percentile may rest on.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// median is percentile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// cpuTime returns the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter samples wall and CPU time at the start of a measured interval.
type meter struct {
	wall time.Time
	cpu  time.Duration
}

func startMeter() meter { return meter{wall: time.Now(), cpu: cpuTime()} }

// stop returns the wall and CPU time elapsed since start.
func (m meter) stop() (wall, cpu time.Duration) {
	return time.Since(m.wall), cpuTime() - m.cpu
}
