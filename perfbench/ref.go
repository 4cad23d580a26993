package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// The shared 2-vCPU Xeon VM this benchmark was tuned on runs its cores at speeds
// that drift by up to 2× over minutes (neighbours on the same physical
// cores), with no steal to show for it. A reference workload timed in
// every window measures the current speed, and figures the host's speed
// sets are reported at the speed where one reference probe takes
// refNominal — about the middle of what that host showed (60–150 µs).
const refNominal = 100 * time.Microsecond

// refProbeEvery paces the reference probes within a window.
const refProbeEvery = 50 * time.Millisecond

var refSink float64

// refProbe times one run of the reference workload: formatting and
// parsing numbers, string-keyed map updates, trigonometry and a sort —
// the kinds of work the pipeline does, written with the standard
// library only, so no change to the program moves it.
func refProbe() time.Duration {
	start := time.Now()
	m := make(map[string]int, 32)
	xs := make([]float64, 128)
	buf := make([]byte, 0, 32)
	for i := range xs {
		buf = strconv.AppendFloat(buf[:0], float64(i)*1.37+0.5, 'f', 6, 64)
		f, _ := strconv.ParseFloat(string(buf), 64)
		xs[i] = math.Sin(f) * math.Cos(f/2)
		m[string(buf[:4])] += i
	}
	sort.Float64s(xs)
	for k, v := range m {
		xs[v%len(xs)] += float64(len(k))
	}
	refSink += xs[0]
	return time.Since(start)
}
