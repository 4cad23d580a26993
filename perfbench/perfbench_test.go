package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"perpos/internal/catalog"
	"perpos/internal/checkpoint"
	"perpos/internal/core"
	"perpos/internal/obs"
	"perpos/internal/positioning"
	"perpos/internal/runtime"
)

// TestMain lets the test binary serve as the keep-awake helper, as the
// benchmark binary does when keepAwake re-runs it with -spin.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-spin" {
		if err := spin(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

// TestKeepAwakeSpinsAtIdlePolicy checks that the helper runs one
// SCHED_IDLE thread per CPU, so it never competes with the benchmark,
// and that stop leaves no process behind.
func TestKeepAwakeSpinsAtIdlePolicy(t *testing.T) {
	s, err := keepAwake()
	if err != nil {
		t.Fatal(err)
	}
	pid := s.cmd.Process.Pid
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/stat", pid))
	if err != nil {
		s.stop()
		t.Fatal(err)
	}
	idle := 0
	for _, p := range tasks {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name start at field 3;
		// the scheduling policy is field 41.
		_, rest, _ := strings.Cut(string(b), ") ")
		if f := strings.Fields(rest); len(f) > 38 && f[38] == fmt.Sprint(schedIdle) {
			idle++
		}
	}
	s.stop()
	if want := goruntime.NumCPU(); idle < want {
		t.Errorf("%d helper threads under SCHED_IDLE, want at least %d (one per CPU)", idle, want)
	}
	if s.cmd.ProcessState == nil {
		t.Errorf("helper %d not waited for after stop", pid)
	}
	if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); err == nil {
		t.Errorf("helper %d still exists after stop", pid)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 50.5}, {0.99, 99.01}, {1, 100},
	} {
		if got := percentile(xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile(empty) = %v, want NaN", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}, {200, 0.95, true},
	} {
		if got := tailSupported(tc.n, tc.q); got != tc.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

// A phase reports the median of per-window percentiles when every
// window holds enough samples, and the pooled percentile otherwise.
func TestPhaseLatencyWindows(t *testing.T) {
	window := func(n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = scale * float64(i+1) / float64(n)
		}
		return xs
	}
	ph := &phaseResult{windows: make([]windowStat, 3)}
	ph.lat = [][]float64{window(1000, 1), window(1000, 2), window(1000, 30)}
	p99 := func(scale float64) float64 { return percentile(window(1000, scale), 0.99) }
	if got, want := ph.latency(0.99), p99(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("windowed p99 = %v, want the middle window's %v", got, want)
	}

	sparse := &phaseResult{windows: make([]windowStat, 3)}
	sparse.lat = [][]float64{window(400, 1), window(400, 1), window(400, 30)}
	var all []float64
	for _, l := range sparse.lat {
		all = append(all, l...)
	}
	if got, want := sparse.latency(0.99), percentile(all, 0.99); got != want {
		t.Errorf("pooled p99 = %v, want %v from %d samples", got, want, len(all))
	}
	if n := sparse.samples(); n != 1200 {
		t.Errorf("samples = %d, want 1200", n)
	}
}

// An open loop's latency skips windows in which the hypervisor stole
// more than maxSteal of the host's CPU, keeping at least a third of the
// windows; a closed loop's uses every window.
func TestLatencySkipsStolenWindows(t *testing.T) {
	window := func(v float64) []float64 {
		xs := make([]float64, 1000)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	steals := []float64{0, 0.2, 0.3, 0.01, 0.25, 0.4}
	lats := []float64{1, 50, 60, 2, 70, 80}
	ph := &phaseResult{windows: make([]windowStat, len(steals))}
	for i, s := range steals {
		ph.windows[i].steal = s
		ph.lat = append(ph.lat, window(lats[i]))
	}
	if got := ph.latency(0.9); got != 1.5 {
		t.Errorf("open-loop p90 = %v, want 1.5 from the two quiet windows", got)
	}
	ph.windows[3].steal = 0.3 // one quiet window left: the third with least steal
	if got := ph.latency(0.9); got != 25.5 {
		t.Errorf("open-loop p90 = %v, want 25.5 from the two least-stolen windows", got)
	}
	ph.closedLoop = true
	if got := ph.latency(0.9); got != 55 {
		t.Errorf("closed-loop p90 = %v, want 55 from every window", got)
	}
}

// Figures the host's speed sets are reported at nominal speed: a window
// whose reference probe took twice refNominal ran at half speed.
func TestHostSpeedScaling(t *testing.T) {
	slow := windowStat{wall: time.Second, cpu: time.Second, positions: 1000, ref: 2 * refNominal}
	fast := windowStat{wall: time.Second, cpu: time.Second / 2, positions: 1000, ref: refNominal}
	if s := slow.speed(); s != 0.5 {
		t.Fatalf("speed of a window at half the nominal speed = %v, want 0.5", s)
	}
	if s := (windowStat{}).speed(); s != 1 {
		t.Fatalf("speed without probes = %v, want 1", s)
	}
	for _, closed := range []bool{true, false} {
		ph := &phaseResult{windows: []windowStat{slow, slow, slow}, closedLoop: closed}
		ph.lat = [][]float64{{2}, {2}, {2}}
		if got := ph.cpuPerPositionUs(); got != 500 {
			t.Errorf("closed=%v: cpu per position = %v us, want 500 (1000 us measured at half speed)", closed, got)
		}
		wantRate, wantCores, wantLat := 1000.0, 0.5, 2.0
		if closed {
			wantRate, wantCores, wantLat = 2000, 1, 1
		}
		if got := ph.positionsPerS(); got != wantRate {
			t.Errorf("closed=%v: positions/s = %v, want %v", closed, got, wantRate)
		}
		if got := ph.cpuCores(); got != wantCores {
			t.Errorf("closed=%v: cores = %v, want %v", closed, got, wantCores)
		}
		if got := ph.latency(0.5); got != wantLat {
			t.Errorf("closed=%v: p50 latency = %v, want %v", closed, got, wantLat)
		}
	}
	// The same work on a host at nominal speed reads the same.
	ph := &phaseResult{windows: []windowStat{fast}}
	if got := ph.cpuPerPositionUs(); got != 500 {
		t.Errorf("nominal-speed cpu per position = %v us, want 500", got)
	}
}

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, period: 100 * time.Millisecond, phases: []time.Duration{10 * time.Millisecond, 40 * time.Millisecond}}
	for k, want := range []struct {
		at   time.Duration
		slot int
	}{
		{10 * time.Millisecond, 0}, {40 * time.Millisecond, 1}, {110 * time.Millisecond, 0}, {140 * time.Millisecond, 1}, {210 * time.Millisecond, 0},
	} {
		due, slot := s.due(k)
		if !due.Equal(start.Add(want.at)) || slot != want.slot {
			t.Errorf("due(%d) = %v slot %d, want %v slot %d", k, due.Sub(start), slot, want.at, want.slot)
		}
	}
}

func TestRandomPhasesAreSeededAndSorted(t *testing.T) {
	a := randomPhases(rand.New(rand.NewSource(7)), 64, 100*time.Millisecond)
	b := randomPhases(rand.New(rand.NewSource(7)), 64, 100*time.Millisecond)
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("phases not sorted")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("phase %d differs across equal seeds: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 100*time.Millisecond {
			t.Fatalf("phase %d = %v outside the period", i, a[i])
		}
	}
	// Walking sorted slots cycle by cycle issues increasing due times.
	s := schedule{start: time.Unix(0, 0), period: 100 * time.Millisecond, phases: a}
	prev, _ := s.due(0)
	for k := 1; k < 3*len(a); k++ {
		due, _ := s.due(k)
		if due.Before(prev) {
			t.Fatalf("due(%d) = %v before due(%d) = %v", k, due, k-1, prev)
		}
		prev = due
	}
}

func TestWaitUntilReportsLateness(t *testing.T) {
	past := time.Now().Add(-30 * time.Millisecond)
	if late := waitUntil(past); late < 30*time.Millisecond {
		t.Errorf("lateness for a due time 30ms ago = %v, want at least 30ms", late)
	}
	due := time.Now().Add(20 * time.Millisecond)
	late := waitUntil(due)
	if time.Now().Before(due) {
		t.Error("waitUntil returned before the due time")
	}
	if late < 0 {
		t.Errorf("lateness = %v, want >= 0", late)
	}
}

// runtimeFirstPositions drives one gps-saturated-configured session
// through the runtime and returns its first K delivered positions.
func runtimeFirstPositions(t *testing.T, tg *gpsTarget) ([]positioning.Position, *core.Blueprint) {
	t.Helper()
	bp, err := catalog.GPSBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	m, err := runtime.NewManager(gpsConfig(bp, map[string]*gpsTarget{tg.id: tg}, obs.New(), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.GetOrCreate(tg.id)
	if err != nil {
		t.Fatal(err)
	}
	var got []positioning.Position
	s.Provider().Subscribe(func(p positioning.Position) {
		if len(got) < checkPositions {
			got = append(got, p)
		}
	})
	for len(got) < checkPositions {
		if _, err := s.StepN(satBatch); err != nil {
			t.Fatal(err)
		}
	}
	return got, bp
}

func TestBitIdentityCheck(t *testing.T) {
	var tg *gpsTarget
	for _, v := range gpsTargets(3, 1) {
		tg = v
	}
	got, bp := runtimeFirstPositions(t, tg)
	want, err := gpsReference(bp, tg, checkPositions)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkIdentical(got, want); err != nil {
		t.Fatalf("unmodified runtime output fails the check: %v", err)
	}

	perturbed := append([]positioning.Position(nil), got...)
	perturbed[7].Global.Lat = math.Nextafter(perturbed[7].Global.Lat, 90)
	if checkIdentical(perturbed, want) == nil {
		t.Error("a one-ulp latitude change passes the check")
	}
	late := append([]positioning.Position(nil), got...)
	late[3].Time = late[3].Time.Add(time.Nanosecond)
	if checkIdentical(late, want) == nil {
		t.Error("a shifted timestamp passes the check")
	}
	if checkIdentical(got[:len(got)-1], want) == nil {
		t.Error("a missing position passes the check")
	}
}

func TestBandCheck(t *testing.T) {
	inside := make([]float64, 200)
	for i := range inside {
		inside[i] = 0.5 + 10*float64(i)/float64(len(inside)) // p50 ~5.5 m, p95 ~10 m
	}
	if err := checkBand(inside); err != nil {
		t.Fatalf("errors inside the band fail: %v", err)
	}
	shifted := make([]float64, len(inside))
	for i, e := range inside {
		shifted[i] = e + 5 // p50 ~10.5 m > 9.0 m
	}
	if checkBand(shifted) == nil {
		t.Error("a 5 m shift passes the band check")
	}
	tail := append([]float64(nil), inside...)
	for i := 0; i < 20; i++ {
		tail[i] = 40 // p95 beyond 24.6 m
	}
	if checkBand(tail) == nil {
		t.Error("a heavy tail passes the band check")
	}
	if checkBand(nil) == nil {
		t.Error("no positions passes the band check")
	}
}

func TestContinuityCheck(t *testing.T) {
	start := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	end := start.Add(1000 * time.Second)
	last := start.Add(300 * time.Second)
	for _, tc := range []struct {
		name string
		last time.Time
		next time.Time
		ok   bool
	}{
		{"next epoch", last, last.Add(time.Second), true},
		{"epoch without a fix in between", last, last.Add(2 * time.Second), true},
		{"restarted at the track's start", last, start, false},
		{"repeated timestamp", last, last, false},
		{"jumped ahead", last, last.Add(30 * time.Second), false},
		{"wrapped around the looping track", end, start, true},
	} {
		err := checkContinuity(tc.last, tc.next, start, end, time.Second)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestContinuityOnRealResume drives the fleet-churn lifecycle on one
// async session: a session resumed from its checkpoint passes the
// continuity check, a freshly created one (state not rehydrated) fails.
func TestContinuityOnRealResume(t *testing.T) {
	var tg *gpsTarget
	for _, v := range gpsTargets(5, 1) {
		tg = v
	}
	bp, err := catalog.GPSBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{SnapshotEvery: churnSnapshotEvery})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := gpsConfig(bp, map[string]*gpsTarget{tg.id: tg}, obs.New(), churnSweep)
	cfg.Checkpoints, cfg.CheckpointEvery = store, churnCheckpointEvery
	m, err := runtime.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	var seen []time.Time
	sub := func(p positioning.Position) {
		mu.Lock()
		seen = append(seen, p.Time)
		mu.Unlock()
	}
	waitFor := func(n int) time.Time {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			mu.Lock()
			if len(seen) >= n {
				last := seen[len(seen)-1]
				mu.Unlock()
				return last
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("fewer than %d positions delivered", n)
		return time.Time{}
	}
	start := func(s *runtime.Session) {
		s.Provider().Subscribe(sub)
		if err := s.Start(ctx, core.WithSourceInterval(5*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	firstAfter := func(n int) time.Time {
		waitFor(n + 1)
		mu.Lock()
		defer mu.Unlock()
		return seen[n]
	}
	pts := tg.trace.Points
	trStart, trEnd := pts[0].Time, pts[len(pts)-1].Time

	s, err := m.GetOrCreate(tg.id)
	if err != nil {
		t.Fatal(err)
	}
	start(s)
	waitFor(10)
	m.Evict(tg.id)
	mu.Lock()
	n, last := len(seen), seen[len(seen)-1]
	mu.Unlock()
	resumed, err := m.ResumeSession(tg.id)
	if err != nil {
		t.Fatal(err)
	}
	start(resumed)
	if err := checkContinuity(last, firstAfter(n), trStart, trEnd, time.Second); err != nil {
		t.Fatalf("resumed session fails the continuity check: %v", err)
	}

	m.Evict(tg.id)
	mu.Lock()
	n, last = len(seen), seen[len(seen)-1]
	mu.Unlock()
	if err := store.Remove(tg.id); err != nil {
		t.Fatal(err)
	}
	fresh, err := m.GetOrCreate(tg.id)
	if err != nil {
		t.Fatal(err)
	}
	start(fresh)
	if checkContinuity(last, firstAfter(n), trStart, trEnd, time.Second) == nil {
		t.Error("a restarted session passes the continuity check")
	}
}

// TestMetricNamesMatchBenchmarkFile keeps the printed metric names and
// units in step with BENCHMARK.json at the repository root.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	e2e := endToEnd([]float64{1}, 1, &phaseResult{windows: []windowStat{{wall: time.Second, cpu: time.Second, positions: 1}}, lat: [][]float64{{1}}}, []float64{1}, 1, 0)
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("command prints %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	if len(layerMetrics) != len(spec.PerLayer) {
		t.Fatalf("command prints %d per-layer metrics, BENCHMARK.json lists %d", len(layerMetrics), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if layerMetrics[i].name != m.Name || layerMetrics[i].unit != m.Unit {
			t.Errorf("per-layer metric %d: printed %+v, BENCHMARK.json %+v", i, layerMetrics[i], m)
		}
	}
}
