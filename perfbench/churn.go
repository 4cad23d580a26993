package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"perpos/internal/catalog"
	"perpos/internal/checkpoint"
	"perpos/internal/core"
	"perpos/internal/obs"
	"perpos/internal/positioning"
	"perpos/internal/runtime"
)

const (
	// churnInterval is the async runners' source interval (10 Hz).
	churnInterval = 100 * time.Millisecond
	// churnSweep is the shipped supervisor sweep period (examples/configs).
	churnSweep = 5 * time.Millisecond
	// churnCheckpointEvery and churnSnapshotEvery are chaos-fusion.json's
	// checkpoint cadence.
	churnCheckpointEvery = 250 * time.Millisecond
	churnSnapshotEvery   = 8
	// churnRate is the lifecycle stream's offered load: a 30 s run holds
	// 1,800 ops, and every 2 s window ten beyond its p90.
	churnRate = 60
)

// churnTarget is one fleet-churn target's subscriber state. It outlives
// the target's sessions: each resume subscribes it to the new provider.
// Deliveries run on the session's app node goroutine.
type churnTarget struct {
	t     *gpsTarget
	count atomic.Int64
	tr    atomic.Pointer[sessTrace]
	// opMu serializes lifecycle ops on the target: a generator that
	// stalled long enough for the target permutation to come round again
	// must not interleave its evict with another generator's resume.
	opMu sync.Mutex

	mu       sync.Mutex
	last     time.Time
	hasLast  bool
	pending  bool // a resume armed the continuity check
	resumeAt time.Time
	checked  int64
	bad      int64
	errs     []float64
}

func (c *churnTarget) deliver(p positioning.Position) {
	c.count.Add(1)
	c.mu.Lock()
	if c.pending {
		c.pending = false
		c.checked++
		pts := c.t.trace.Points
		if err := checkContinuity(c.resumeAt, p.Time, pts[0].Time, pts[len(pts)-1].Time, time.Second); err != nil {
			c.bad++
			fmt.Printf("check: %s: %v\n", c.t.id, err)
		}
	}
	c.last, c.hasLast = p.Time, true
	c.errs = append(c.errs, errorOf(c.t.trace, p))
	c.mu.Unlock()
	if tr := c.tr.Load(); tr != nil {
		tr.deliver(p)
	}
}

// churnFleet is one built fleet-churn set-up.
type churnFleet struct {
	bp       *core.Blueprint
	hub      *obs.Metrics
	store    *checkpoint.Store
	dir      string
	mgr      *runtime.Manager
	ctx      context.Context
	cancel   context.CancelFunc
	targets  []*churnTarget
	byID     map[string]*churnTarget
	createMs []float64

	// Traced runs only: appends recorded from the store's OnAppend
	// hook, and instrumentation attached to every (re)started session.
	recordAppends atomic.Bool
	appendMu      sync.Mutex
	appendUs      []float64
	appendBytes   []float64
	onSession     func(c *churnTarget, s *runtime.Session)
}

// buildChurnFleet opens the checkpoint store, builds the sessions and
// starts every one on the async engine.
func buildChurnFleet(targets map[string]*gpsTarget, dir string) (*churnFleet, error) {
	bp, err := catalog.GPSBlueprint()
	if err != nil {
		return nil, err
	}
	f := &churnFleet{bp: bp, hub: obs.New(), dir: dir, byID: make(map[string]*churnTarget)}
	f.store, err = checkpoint.Open(dir, checkpoint.Options{
		SnapshotEvery: churnSnapshotEvery,
		OnAppend: func(id string, n int, d time.Duration, err error) {
			f.hub.CheckpointAppend(id, n, d, err)
			if f.recordAppends.Load() && err == nil {
				f.appendMu.Lock()
				f.appendUs = append(f.appendUs, float64(d)/1e3)
				f.appendBytes = append(f.appendBytes, float64(n))
				f.appendMu.Unlock()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	cfg := gpsConfig(bp, targets, f.hub, churnSweep)
	cfg.Checkpoints, cfg.CheckpointEvery = f.store, churnCheckpointEvery
	f.mgr, err = runtime.NewManager(cfg)
	if err != nil {
		f.store.Close()
		return nil, err
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	for i := 0; i < len(targets); i++ {
		t := targets[fmt.Sprintf("target-%04d", i)]
		c := &churnTarget{t: t}
		f.targets = append(f.targets, c)
		f.byID[t.id] = c
		start := time.Now()
		s, err := f.mgr.GetOrCreate(t.id)
		if err != nil {
			f.close()
			return nil, err
		}
		f.createMs = append(f.createMs, float64(time.Since(start))/1e6)
		s.Provider().Subscribe(c.deliver)
		if err := s.Start(f.ctx, core.WithSourceInterval(churnInterval)); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *churnFleet) close() {
	f.cancel()
	f.mgr.Close()
	f.store.Close()
	os.RemoveAll(f.dir)
}

// lifecycle is one op's call timings.
type lifecycle struct {
	evict, resume, start time.Duration
}

// op evicts the target (its final checkpoint goes to the store),
// resumes it from the store and starts it again — the path a fleet
// takes when a target idles out and comes back.
func (f *churnFleet) op(id string) (lifecycle, error) {
	var lc lifecycle
	c := f.byID[id]
	c.opMu.Lock()
	defer c.opMu.Unlock()
	t0 := time.Now()
	if !f.mgr.Evict(id) {
		return lc, fmt.Errorf("evict %s: no live session", id)
	}
	t1 := time.Now()
	c.mu.Lock()
	c.pending, c.resumeAt = c.hasLast, c.last
	c.mu.Unlock()
	s, err := f.mgr.ResumeSession(id)
	t2 := time.Now()
	if err != nil {
		return lc, fmt.Errorf("resume %s: %w", id, err)
	}
	s.Provider().Subscribe(c.deliver)
	if f.onSession != nil {
		f.onSession(c, s)
	}
	if err := s.Start(f.ctx, core.WithSourceInterval(churnInterval)); err != nil {
		return lc, fmt.Errorf("start %s: %w", id, err)
	}
	t3 := time.Now()
	return lifecycle{evict: t1.Sub(t0), resume: t2.Sub(t1), start: t3.Sub(t2)}, nil
}

// churnGen is one lifecycle-stream generator goroutine.
type churnGen struct {
	rec          latRec
	late         []float64 // ms
	sched        schedule
	ops          []int // op indexes this generator issues, in order
	calls        []lifecycle
	done, failed int64
	err          error
	tracer       *tracer
}

// drive runs the fleet for d under the lifecycle stream: churnRate ops
// per second, split round-robin over nproc generator goroutines, on
// the seeded target sequence from index first on.
func (f *churnFleet) drive(d time.Duration, seq []string, first int, tr *tracer) (*phaseResult, []*churnGen) {
	clock := newPhaseClock(d)
	ng := goruntime.GOMAXPROCS(0)
	start := time.Now()
	n := churnOps(d)
	step := time.Second / churnRate
	gens := make([]*churnGen, ng)
	for g := range gens {
		gens[g] = &churnGen{
			rec:    newLatRec(clock),
			sched:  schedule{start: start, period: time.Duration(ng) * step, phases: []time.Duration{time.Duration(g) * step}},
			tracer: tr,
		}
	}
	for k := 0; k < n; k++ {
		gens[k%ng].ops = append(gens[k%ng].ops, first+k)
	}
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func(g *churnGen) {
			defer wg.Done()
			for j, k := range g.ops {
				due, _ := g.sched.due(j)
				g.late = append(g.late, float64(waitUntil(due))/1e6)
				var opStart int64
				if g.tracer != nil {
					opStart = g.tracer.now()
				}
				lc, err := f.op(seq[k%len(seq)])
				g.rec.add(float64(time.Since(due)) / 1e6)
				g.done++
				if err != nil {
					g.failed++
					g.err = err
					continue
				}
				g.calls = append(g.calls, lc)
				if g.tracer != nil {
					e := opStart + int64(lc.evict)
					r := e + int64(lc.resume)
					g.tracer.op(uint64(k), opStart, []span{
						{Name: "runtime.Evict", Start: opStart, End: e},
						{Name: "runtime.ResumeSession", Start: e, End: r},
						{Name: "runtime.Session.Start", Start: r, End: r + int64(lc.start)},
					})
				}
			}
		}(g)
	}
	positions := func() int64 {
		var n int64
		for _, c := range f.targets {
			n += c.count.Load()
		}
		return n
	}
	ph := &phaseResult{windows: measure(d, clock, positions)}
	wg.Wait()
	for _, g := range gens {
		ph.merge(&g.rec)
		if g.err != nil {
			fmt.Printf("lifecycle error: %v\n", g.err)
		}
	}
	return ph, gens
}

// churnOps is the number of lifecycle ops the stream issues in d.
func churnOps(d time.Duration) int {
	return int(d.Seconds() * churnRate)
}

// churnSequence is the seeded target order of the lifecycle stream:
// successive shuffles of all targets.
func churnSequence(seed int64, targets int, ops int) []string {
	rng := rand.New(rand.NewSource(seed ^ 0xc4a7))
	var seq []string
	for len(seq) < ops {
		for _, i := range rng.Perm(targets) {
			seq = append(seq, fmt.Sprintf("target-%04d", i))
		}
	}
	return seq
}

// check waits for the continuity checks armed by the last ops, then
// verifies that the fleet still holds every target. It returns
// (checks, failures).
func (f *churnFleet) check() (int64, int64) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		pending := 0
		for _, c := range f.targets {
			c.mu.Lock()
			if c.pending {
				pending++
			}
			c.mu.Unlock()
		}
		if pending == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var checked, bad int64
	for _, c := range f.targets {
		c.mu.Lock()
		checked += c.checked
		bad += c.bad
		if c.pending {
			checked++
			bad++
			fmt.Printf("check: %s: no position after its resume\n", c.t.id)
		}
		c.mu.Unlock()
	}
	checked++
	if n := f.mgr.Len(); n != len(f.targets) {
		bad++
		fmt.Printf("check: %d live sessions at the end, want %d\n", n, len(f.targets))
	}
	return checked, bad
}

func (f *churnFleet) errors() []float64 {
	var errs []float64
	for _, c := range f.targets {
		c.mu.Lock()
		errs = append(errs, c.errs...)
		c.mu.Unlock()
	}
	return errs
}

func churnDir(rep int) string {
	return filepath.Join(outDir, fmt.Sprintf("checkpoints-%d-%d", os.Getpid(), rep))
}

func runFleetChurn(cfg runConfig) (result, error) {
	targets := gpsTargets(cfg.seed, gpsSessions)
	seq := churnSequence(cfg.seed, gpsSessions, int((warmup+cfg.seconds).Seconds()*churnRate)+1)
	if cfg.trace {
		return traceFleetChurn(cfg, targets, seq)
	}
	rep := 0
	f, setups, heapPerSession, err := repeatSetup(func() (*churnFleet, int, error) {
		rep++
		f, err := buildChurnFleet(targets, churnDir(rep))
		return f, len(targets), err
	})
	if err != nil {
		return result{}, err
	}
	defer f.close()
	_, wgens := f.drive(warmup, seq, 0, nil)
	ph, gens := f.drive(cfg.seconds, seq, churnOps(warmup), nil)
	var ops, failed int64
	for _, g := range append(wgens, gens...) {
		ops += g.done
		failed += g.failed
	}
	checked, bad := f.check()
	attempted, failedAll := ops+checked, failed+bad
	return result{
		Correct:   failedAll == 0,
		Attempted: attempted,
		Failed:    failedAll,
		Metrics:   endToEnd(setups, heapPerSession, ph, f.errors(), attempted, failedAll),
	}, nil
}

// traceFleetChurn is the traced run: half the time untraced, half with
// every session and op traced, then replays.
func traceFleetChurn(cfg runConfig, targets map[string]*gpsTarget, seq []string) (result, error) {
	f, err := buildChurnFleet(targets, churnDir(0))
	if err != nil {
		return result{}, err
	}
	defer f.close()
	ls := newLayerSet()
	ls.set("runtime.create_ms_p50", percentile(f.createMs, 0.5))

	sweeps := countSweeps(f.mgr)
	// Sessions resumed by the stream get the same instrumentation as the
	// live ones: a sweep counter, and in the traced phase a tap.
	var tracing atomic.Bool
	var tapMu sync.Mutex
	var untap []func()
	tapSession := func(c *churnTarget, s *runtime.Session) {
		cancel := s.Graph().Tap(c.tr.Load().tap)
		tapMu.Lock()
		untap = append(untap, cancel)
		tapMu.Unlock()
	}
	f.onSession = func(c *churnTarget, s *runtime.Session) {
		s.Supervisor().OnSweep(func(time.Time) { sweeps.Add(1) })
		if tracing.Load() {
			tapSession(c, s)
		}
	}
	_, wgens := f.drive(warmup, seq, 0, nil)
	sweeps.Store(0)
	rt0 := readRuntime()
	untraced, gens := f.drive(cfg.seconds/2, seq, churnOps(warmup), nil)
	ls.setRuntime(rt0, readRuntime(), untraced.delivered())
	wall := untraced.wall().Seconds()
	ls.set("health.sweeps_per_s", float64(sweeps.Load())/wall)
	ls.set("runtime.positions_per_session_s", float64(untraced.delivered())/wall/float64(len(f.targets)))
	var late []float64
	var ops, failed int64
	for _, g := range append(wgens, gens...) {
		ops += g.done
		failed += g.failed
	}
	for _, g := range gens {
		late = append(late, g.late...)
	}
	ls.set("loadgen.late_ms_p99", percentile(late, 0.99))

	tr := newTracer(true, 16)
	for _, c := range f.targets {
		c.tr.Store(tr.session(c.t.id))
	}
	tracing.Store(true)
	for _, c := range f.targets {
		if s, ok := f.mgr.Get(c.t.id); ok {
			tapSession(c, s)
		}
	}
	f.recordAppends.Store(true)
	traced, tgens := f.drive(cfg.seconds/2, seq, churnOps(warmup+cfg.seconds/2), tr)
	f.recordAppends.Store(false)
	tracing.Store(false)
	for _, cancel := range untap {
		cancel()
	}
	for _, c := range f.targets {
		c.tr.Store(nil)
	}
	// The checks need the fleet running; the replays below want the
	// machine quiet, so the fleet stops after them.
	checked, bad := f.check()
	for _, id := range f.mgr.IDs() {
		if s, ok := f.mgr.Get(id); ok {
			// Stop returns the errors the runner drained; the output
			// checks above already judged what was delivered.
			_ = s.Stop()
		}
	}
	var evict, resume, start []float64
	for _, g := range tgens {
		ops += g.done
		failed += g.failed
		for _, lc := range g.calls {
			evict = append(evict, float64(lc.evict)/1e6)
			resume = append(resume, float64(lc.resume)/1e6)
			start = append(start, float64(lc.start)/1e6)
		}
	}
	ls.set("runtime.evict_ms_p50", percentile(evict, 0.5))
	ls.set("runtime.resume_ms_p50", percentile(resume, 0.5))
	ls.set("runtime.start_ms_p50", percentile(start, 0.5))
	ls.setHops(tr, "gps", "parser", "interpreter", "app")
	ls.set("trace.overhead_share", overheadShare(untraced.cpuCores(), traced.cpuCores(), false))
	f.appendMu.Lock()
	ls.set("checkpoint.append_us_p50", percentile(f.appendUs, 0.5))
	ls.set("checkpoint.bytes_per_record", percentile(f.appendBytes, 0.5))
	f.appendMu.Unlock()
	var loads []float64
	for _, c := range f.targets {
		t := time.Now()
		if _, err := f.store.Load(c.t.id); err == nil {
			loads = append(loads, float64(time.Since(t))/1e6)
		}
	}
	ls.set("checkpoint.load_ms_p50", percentile(loads, 0.5))

	capt := tr.captured()
	ev := capt.events
	t0 := targets["target-0000"]
	ls.setGPSChainReplay(func() core.Producer { return t0.receiver("gps").(core.Producer) }, ev)
	if err := ls.setLayerReplay(replicaGraph(f.bp, core.WithComponentOverride("gps", t0.receiver)), 64, capt); err != nil {
		return result{}, err
	}
	ls.setTapReplays(*gpsHealth(churnSweep), ev)
	scratch := &churnTarget{t: t0}
	ls.setDeliverReplay(scratch.deliver, capt)

	replica, err := replicaSession(gpsConfig(f.bp, map[string]*gpsTarget{"replica": t0}, obs.New(), churnSweep))
	if err != nil {
		return result{}, err
	}
	defer replica.close()
	ls.set("health.sweep_us", float64(perCall(2000, nil, func(int) { replica.s.Supervisor().Sweep(time.Now()) }))/1e3)
	steps := make([]float64, 0, 2000)
	for i := 0; i < 2000; i++ {
		t := time.Now()
		if _, err := replica.s.Step(); err != nil {
			return result{}, err
		}
		steps = append(steps, float64(time.Since(t))/1e3)
	}
	ls.set("runtime.step_us_p50", percentile(steps, 0.5))
	ls.set("runtime.step_us_p99", percentile(steps, 0.99))

	_, lists := tr.spanLists()
	printTable("fleet-churn", selfTimes(lists...), ls)
	if err := tr.writeSpans(spanPath("fleet-churn", cfg.seed), map[string]any{"workload": "fleet-churn", "seed": cfg.seed}); err != nil {
		return result{}, err
	}
	attempted := ops + checked
	failedAll := failed + bad
	return result{Correct: failedAll == 0, Attempted: attempted, Failed: failedAll, Metrics: ls}, nil
}
