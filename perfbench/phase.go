package main

import (
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// warmup is how long every workload runs its load before the measured
// phase. Its operations count as attempted (and failed, if they fail)
// but are not measured: it lets caches, the collector's heap target and
// the host's idle vCPUs settle, which the first seconds after set-up
// otherwise charge to the first windows.
const warmup = 4 * time.Second

// windowLen splits every measured phase into windows of this length.
// Rates and latency percentiles are computed per window and the median
// over the windows is reported, so a burst of co-tenant noise moves a
// window or two rather than the result.
const windowLen = 2 * time.Second

// windowStat is one window's wall time, process CPU time and delivered
// positions.
type windowStat struct {
	wall, cpu time.Duration
	positions int64
	steal     float64       // share of the host's CPU time stolen by the hypervisor
	ref       time.Duration // median reference probe (see ref.go)
}

// speed is how much faster than nominal the host ran in the window:
// a time measured in it is reported as time × speed, a rate as
// rate ÷ speed.
func (w windowStat) speed() float64 {
	if w.ref <= 0 {
		return 1
	}
	return float64(refNominal) / float64(w.ref)
}

// phaseClock tells recorders which window of a phase is current.
type phaseClock struct {
	n   int
	win atomic.Int32
}

// newPhaseClock splits a phase of length d into windows.
func newPhaseClock(d time.Duration) *phaseClock {
	return &phaseClock{n: max(1, int(d/windowLen))}
}

// latRec collects latency samples (ms) per window for one goroutine.
type latRec struct {
	clock *phaseClock
	lat   [][]float64
}

func newLatRec(clock *phaseClock) latRec {
	return latRec{clock: clock, lat: make([][]float64, clock.n)}
}

func (r *latRec) add(ms float64) {
	w := r.clock.win.Load()
	r.lat[w] = append(r.lat[w], ms)
}

// measure advances the clock through the phase's windows, snapshotting
// CPU time and the delivered-position count at every boundary, and
// probes the host's speed every refProbeEvery in between.
func measure(d time.Duration, clock *phaseClock, positions func() int64) []windowStat {
	wd := d / time.Duration(clock.n)
	stats := make([]windowStat, clock.n)
	start := time.Now()
	m, p0, s0 := startMeter(), positions(), readSteal()
	for k := 0; k < clock.n; k++ {
		clock.win.Store(int32(k))
		end := start.Add(time.Duration(k+1) * wd)
		var refs []float64
		for time.Until(end) > refProbeEvery {
			time.Sleep(refProbeEvery)
			refs = append(refs, float64(refProbe()))
		}
		time.Sleep(time.Until(end))
		wall, cpu := m.stop()
		p, s1 := positions(), readSteal()
		stats[k] = windowStat{wall: wall, cpu: cpu, positions: p - p0, steal: s1.since(s0)}
		if len(refs) > 0 {
			stats[k].ref = time.Duration(percentile(refs, 0.5))
		}
		m, p0, s0 = startMeter(), p, s1
	}
	return stats
}

// stealTicks is the host's cumulative CPU time and the part of it the
// hypervisor stole, from the first line of /proc/stat.
type stealTicks struct{ total, steal uint64 }

func readSteal() stealTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	var t stealTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil || i >= 8 { // user … steal; guest time is already in user
			break
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since returns the stolen share of the host's CPU time since before.
func (t stealTicks) since(before stealTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}

// phaseResult is what a measured phase of any workload yields.
type phaseResult struct {
	windows    []windowStat
	lat        [][]float64 // ms per window, merged over recorders
	closedLoop bool
}

func (p *phaseResult) merge(recs ...*latRec) {
	if p.lat == nil {
		p.lat = make([][]float64, len(p.windows))
	}
	for _, r := range recs {
		for w := range r.lat {
			p.lat[w] = append(p.lat[w], r.lat[w]...)
		}
	}
}

// perWindow maps fn over the windows and returns the median.
func (p *phaseResult) perWindow(fn func(windowStat) float64) float64 {
	xs := make([]float64, len(p.windows))
	for i, w := range p.windows {
		xs[i] = fn(w)
	}
	return median(xs)
}

// positionsPerS is the delivered rate. A closed loop's rate is set by
// the host's speed and is reported at nominal speed; an open loop's is
// set by its schedule and is reported as measured.
func (p *phaseResult) positionsPerS() float64 {
	return p.perWindow(func(w windowStat) float64 {
		r := float64(w.positions) / w.wall.Seconds()
		if p.closedLoop {
			r /= w.speed()
		}
		return r
	})
}

// cpuCores is the CPU time spent per wall-clock second. Under an open
// loop it is the CPU cost of a fixed load, reported at nominal speed;
// a closed loop uses every core it is given, so it is reported as
// measured.
func (p *phaseResult) cpuCores() float64 {
	return p.perWindow(func(w windowStat) float64 {
		c := w.cpu.Seconds() / w.wall.Seconds()
		if !p.closedLoop {
			c *= w.speed()
		}
		return c
	})
}

// cpuPerPositionUs is the CPU time per delivered position at nominal
// speed.
func (p *phaseResult) cpuPerPositionUs() float64 {
	return p.perWindow(func(w windowStat) float64 {
		return float64(w.cpu) / 1e3 / float64(max(w.positions, 1)) * w.speed()
	})
}

// speed is the phase's median host speed (see windowStat.speed).
func (p *phaseResult) speed() float64 {
	return p.perWindow(windowStat.speed)
}

// delivered is the phase's total delivered positions.
func (p *phaseResult) delivered() int64 {
	var n int64
	for _, w := range p.windows {
		n += w.positions
	}
	return n
}

// wall is the phase's total wall time.
func (p *phaseResult) wall() time.Duration {
	var d time.Duration
	for _, w := range p.windows {
		d += w.wall
	}
	return d
}

func (p *phaseResult) samples() int {
	n := 0
	for _, l := range p.lat {
		n += len(l)
	}
	return n
}

// maxSteal is the largest share of the host's CPU the hypervisor may
// have stolen in a window an open loop's latency is read from.
const maxSteal = 0.05

// latencyWindows returns the windows latency is read from. A closed
// loop's latency is pure service time and uses every window. An open
// loop stalls with its vCPU, and every operation due during a stall
// waits for it, so under steal it times the host's other tenants: it
// uses the windows with at most maxSteal stolen or, when fewer than a
// third qualify, the third with the least steal.
func (p *phaseResult) latencyWindows() []int {
	idx := make([]int, len(p.windows))
	for i := range idx {
		idx[i] = i
	}
	if p.closedLoop {
		return idx
	}
	sort.SliceStable(idx, func(a, b int) bool { return p.windows[idx[a]].steal < p.windows[idx[b]].steal })
	n := 0
	for n < len(idx) && p.windows[idx[n]].steal <= maxSteal {
		n++
	}
	return idx[:max(n, (len(idx)+2)/3)]
}

// latency returns the q-quantile of the latency samples in ms, over the
// latency windows: the median of per-window quantiles when each holds
// at least ten samples beyond the quantile, else the quantile of their
// samples pooled. A closed loop's latency is set by the host's speed
// and is reported at nominal speed; an open loop's includes waiting for
// its schedule and is reported as measured.
func (p *phaseResult) latency(q float64) float64 {
	wins := p.latencyWindows()
	scale := func(i int) float64 {
		if p.closedLoop {
			return p.windows[i].speed()
		}
		return 1
	}
	perWin := make([]float64, 0, len(wins))
	for _, i := range wins {
		if !tailSupported(len(p.lat[i]), q) {
			perWin = nil
			break
		}
		perWin = append(perWin, percentile(p.lat[i], q)*scale(i))
	}
	if perWin != nil {
		return median(perWin)
	}
	var all []float64
	var speeds []float64
	for _, i := range wins {
		all = append(all, p.lat[i]...)
		speeds = append(speeds, scale(i))
	}
	return percentile(all, q) * median(speeds)
}

// setupReps is how many times each run builds its set-up; the median
// is setup_s and the last build is the one measured.
const setupReps = 7

// repeatSetup builds a workload's set-up setupReps times, closing all
// but the last build. It returns the last build, every build's
// duration in seconds, and the live heap the last build added per
// session.
func repeatSetup[F interface{ close() }](build func() (F, int, error)) (F, []float64, float64, error) {
	var f F
	var setups []float64
	var perSession float64
	for rep := 0; rep < setupReps; rep++ {
		before := liveHeap()
		start := time.Now()
		var n int
		var err error
		f, n, err = build()
		if err != nil {
			return f, nil, 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
		perSession = float64(int64(liveHeap())-int64(before)) / float64(n)
		if rep < setupReps-1 {
			f.close()
		}
	}
	return f, setups, perSession, nil
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// endToEnd assembles the end-to-end metrics every workload reports.
// The median of the set-up repetitions is the set-up time, reported at
// nominal speed with the run's median host speed.
func endToEnd(setups []float64, heapPerSession float64, ph *phaseResult, errs []float64, attempted, failed int64) map[string]metric {
	success := 1.0
	if attempted > 0 {
		success = 1 - float64(failed)/float64(attempted)
	}
	fmt.Printf("latency samples: %d over %d windows (p50 %.4f ms, p90 %.4f ms, p99 %.4f ms); error samples: %d; set-up %.4f s as measured\n",
		ph.samples(), len(ph.windows), ph.latency(0.5), ph.latency(0.9), ph.latency(0.99), len(errs), median(setups))
	for i, w := range ph.windows {
		fmt.Printf("  window %d as measured: reference %.1f us, steal %.3f, %.1f positions/s, %.3f cores, %.2f us/position, %d latency samples, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms\n", i,
			float64(w.ref)/1e3, w.steal, float64(w.positions)/w.wall.Seconds(), w.cpu.Seconds()/w.wall.Seconds(), float64(w.cpu)/1e3/float64(max(w.positions, 1)),
			len(ph.lat[i]), percentile(ph.lat[i], 0.5), percentile(ph.lat[i], 0.9), percentile(ph.lat[i], 0.99))
	}
	return map[string]metric{
		"setup_s":                {median(setups) * ph.speed(), "s"},
		"positions_per_s":        {ph.positionsPerS(), "1/s"},
		"cpu_us_per_position":    {ph.cpuPerPositionUs(), "us"},
		"cpu_cores":              {ph.cpuCores(), "cores"},
		"latency_p50_ms":         {ph.latency(0.5), "ms"},
		"heap_bytes_per_session": {heapPerSession, "B"},
		"error_m_p50":            {percentile(errs, 0.5), "m"},
		"error_m_p95":            {percentile(errs, 0.95), "m"},
		"success_share":          {success, "share"},
	}
}
