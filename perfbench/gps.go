package main

import (
	"context"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"perpos/internal/catalog"
	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/health"
	"perpos/internal/obs"
	"perpos/internal/positioning"
	"perpos/internal/runtime"
	"perpos/internal/trace"
)

// gpsOrigin anchors the GPS workloads' outdoor tracks (the cluster
// demo's origin).
var gpsOrigin = geo.Point{Lat: 56.1629, Lon: 10.2039}

const (
	gpsSessions = 256
	// satBatch is the StepN batch of the saturated drivers, as in the
	// runtime package's saturated benchmark.
	satBatch = 64
	// checkPositions is K of the bit-identity check: the first K
	// positions of every session are compared with the bare reference.
	checkPositions = 32
	// satSampleEvery samples one delivered position in this many for the
	// latency and error metrics, keeping the saturated subscriber cheap
	// and its allocations out of the collector's way. It is coprime with
	// satBatch, so the sampled positions rotate through batch offsets.
	satSampleEvery = 17
)

// gpsTarget is one tracked target's generated input: a ground-truth
// outdoor track and the receiver's noise seed.
type gpsTarget struct {
	id    string
	seed  int64
	trace *trace.Trace
}

// gpsTargets draws n targets from the run seed.
func gpsTargets(seed int64, n int) map[string]*gpsTarget {
	rng := rand.New(rand.NewSource(seed))
	ts := make(map[string]*gpsTarget, n)
	for i := 0; i < n; i++ {
		s := rng.Int63()
		id := fmt.Sprintf("target-%04d", i)
		ts[id] = &gpsTarget{id: id, seed: s, trace: trace.OutdoorTrack(gpsOrigin, s, 8, 150, 1.4, time.Second)}
	}
	return ts
}

// receiver is the target's GPS source: the default string-NMEA
// receiver looping over the track, as the cluster demo ships it.
func (t *gpsTarget) receiver(cid string) core.Component {
	return gps.NewReceiver(cid, t.trace, gps.Config{Seed: t.seed, ColdStart: time.Second, Loop: true})
}

// errorOf is a delivered position's horizontal distance from the
// track's ground truth at the position's timestamp.
func errorOf(tr *trace.Trace, p positioning.Position) float64 {
	truth, _ := tr.At(p.Time)
	return p.Global.DistanceTo(truth.Global)
}

// gpsHealth is the supervision policy of the GPS workloads: the
// breaker, probe and restart values of the shipped supervision blocks
// (examples/configs), with the given sweep period (0 = the health
// package default).
func gpsHealth(sweep time.Duration) *health.Policy {
	return &health.Policy{
		MaxConsecutiveErrors: 2,
		ProbeInterval:        10 * time.Millisecond,
		Sweep:                sweep,
		Restart:              core.RestartPolicy{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	}
}

// gpsConfig is the session configuration of catalog.GPSBlueprint
// sessions with the metrics hub and supervision on.
func gpsConfig(bp *core.Blueprint, targets map[string]*gpsTarget, hub *obs.Metrics, sweep time.Duration) runtime.SessionConfig {
	return runtime.SessionConfig{
		Blueprint: bp,
		Overrides: func(id string) []core.InstantiateOption {
			return []core.InstantiateOption{core.WithComponentOverride("gps", targets[id].receiver)}
		},
		Provider:      positioning.ProviderInfo{Technology: "gps", TypicalAccuracy: 5},
		History:       64,
		Health:        gpsHealth(sweep),
		Observability: hub,
	}
}

// gpsReference runs the bare pipeline: the same blueprint and seeds,
// instantiated with Blueprint.Instantiate and stepped with
// Graph.StepAll, with no runtime, channel layer, metrics or health.
// It returns the first k positions.
func gpsReference(bp *core.Blueprint, t *gpsTarget, k int) ([]positioning.Position, error) {
	var got []positioning.Position
	g, err := bp.Instantiate(
		core.WithComponentOverride("gps", t.receiver),
		core.WithComponentOverride("app", func(id string) core.Component {
			return core.NewSink(id, []core.Kind{positioning.KindPosition}, core.WithKeep(1),
				core.WithCallback(func(s core.Sample) {
					if p, ok := s.Payload.(positioning.Position); ok {
						got = append(got, p)
					}
				}))
		}))
	if err != nil {
		return nil, err
	}
	for steps := 0; len(got) < k && steps < 100*k; steps++ {
		if _, err := g.StepAll(); err != nil {
			return nil, err
		}
	}
	return got[:min(k, len(got))], nil
}

// satSession is one gps-saturated session and its subscriber's state.
// The subscriber runs on the worker driving the session.
type satSession struct {
	t     *gpsTarget
	sess  *runtime.Session
	w     *satWorker
	count atomic.Int64
	n     int
	first []positioning.Position
	errs  []float64
	tr    *sessTrace
}

// deliver is the session's provider subscriber: the delivered count,
// the positions the checks need and, for sampled positions, latency
// from the batch's issue and error against ground truth.
func (s *satSession) deliver(p positioning.Position) {
	s.count.Add(1)
	if len(s.first) < checkPositions {
		s.first = append(s.first, p)
	}
	if s.n%satSampleEvery == 0 {
		s.w.rec.add(float64(time.Since(s.w.batchStart)) / 1e6)
		s.errs = append(s.errs, errorOf(s.t.trace, p))
	}
	s.n++
	if s.tr != nil {
		s.tr.deliver(p)
	}
}

// satWorker drives one shard of sessions in StepN batches, closed
// loop: a batch is issued when the previous one returns, and every step
// of a batch is due when the batch is issued.
type satWorker struct {
	rec           latRec
	batchStart    time.Time
	shard         []*satSession
	steps, failed int64
	err           error
}

func (w *satWorker) run(stop *atomic.Bool) {
	for !stop.Load() {
		for _, s := range w.shard {
			if stop.Load() {
				return
			}
			w.batchStart = time.Now()
			if s.tr != nil {
				s.tr.stepStart("runtime.StepN")
			}
			_, err := s.sess.StepN(satBatch)
			if s.tr != nil {
				s.tr.stepEnd(w.batchStart, satBatch)
			}
			w.steps += satBatch
			if err != nil {
				w.failed += satBatch
				w.err = err
			}
		}
	}
}

// satFleet is one built gps-saturated set-up.
type satFleet struct {
	bp       *core.Blueprint
	hub      *obs.Metrics
	mgr      *runtime.Manager
	cancel   context.CancelFunc
	sessions []*satSession
	createMs []float64
}

func buildSatFleet(targets map[string]*gpsTarget) (*satFleet, error) {
	bp, err := catalog.GPSBlueprint()
	if err != nil {
		return nil, err
	}
	f := &satFleet{bp: bp, hub: obs.New()}
	f.mgr, err = runtime.NewManager(gpsConfig(bp, targets, f.hub, 0))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < len(targets); i++ {
		t := targets[fmt.Sprintf("target-%04d", i)]
		start := time.Now()
		sess, err := f.mgr.GetOrCreate(t.id)
		if err != nil {
			f.close()
			return nil, err
		}
		f.createMs = append(f.createMs, float64(time.Since(start))/1e6)
		s := &satSession{t: t, sess: sess}
		sess.Provider().Subscribe(s.deliver)
		sess.Supervisor().Start(ctx)
		f.sessions = append(f.sessions, s)
	}
	return f, nil
}

func (f *satFleet) close() {
	f.cancel()
	f.mgr.Close()
}

// drive runs nproc workers over the fleet for d and measures it,
// returning the phase and the source steps attempted and failed.
func (f *satFleet) drive(d time.Duration) (*phaseResult, int64, int64) {
	clock := newPhaseClock(d)
	nw := goruntime.GOMAXPROCS(0)
	workers := make([]*satWorker, nw)
	for i := range workers {
		workers[i] = &satWorker{rec: newLatRec(clock)}
	}
	for i, s := range f.sessions {
		w := workers[i%nw]
		w.shard = append(w.shard, s)
		s.w = w
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *satWorker) {
			defer wg.Done()
			w.run(&stop)
		}(w)
	}
	positions := func() int64 {
		var n int64
		for _, s := range f.sessions {
			n += s.count.Load()
		}
		return n
	}
	ph := &phaseResult{windows: measure(d, clock, positions), closedLoop: true}
	stop.Store(true)
	wg.Wait()
	var steps, failed int64
	for _, w := range workers {
		ph.merge(&w.rec)
		steps += w.steps
		failed += w.failed
		if w.err != nil {
			fmt.Printf("step error: %v\n", w.err)
		}
	}
	return ph, steps, failed
}

// check compares every session's first K positions with the bare
// reference and returns (comparisons, mismatches).
func (f *satFleet) check() (int64, int64, error) {
	var n, bad int64
	for _, s := range f.sessions {
		want, err := gpsReference(f.bp, s.t, checkPositions)
		if err != nil {
			return n, bad, err
		}
		n++
		if err := checkIdentical(s.first, want); err != nil {
			bad++
			if bad <= 3 {
				fmt.Printf("check: %s: %v\n", s.t.id, err)
			}
		}
	}
	return n, bad, nil
}

func (f *satFleet) errors() []float64 {
	var errs []float64
	for _, s := range f.sessions {
		errs = append(errs, s.errs...)
	}
	return errs
}

func runGPSSaturated(cfg runConfig) (result, error) {
	targets := gpsTargets(cfg.seed, gpsSessions)
	if cfg.trace {
		return traceGPSSaturated(cfg, targets)
	}
	f, setups, heapPerSession, err := repeatSetup(func() (*satFleet, int, error) {
		f, err := buildSatFleet(targets)
		return f, len(targets), err
	})
	if err != nil {
		return result{}, err
	}
	defer f.close()
	_, wsteps, wfailed := f.drive(warmup)
	ph, steps, failed := f.drive(cfg.seconds)
	steps, failed = steps+wsteps, failed+wfailed
	checked, bad, err := f.check()
	if err != nil {
		return result{}, err
	}
	attempted, failedAll := steps+checked, failed+bad
	return result{
		Correct:   failedAll == 0,
		Attempted: attempted,
		Failed:    failedAll,
		Metrics:   endToEnd(setups, heapPerSession, ph, f.errors(), attempted, failedAll),
	}, nil
}

// traceGPSSaturated is the traced run: half the time untraced, half
// with every session traced, then replays of the captured stream.
func traceGPSSaturated(cfg runConfig, targets map[string]*gpsTarget) (result, error) {
	f, err := buildSatFleet(targets)
	if err != nil {
		return result{}, err
	}
	defer f.close()
	ls := newLayerSet()
	ls.set("runtime.create_ms_p50", percentile(f.createMs, 0.5))

	_, wsteps, wfailed := f.drive(warmup)
	sweeps := countSweeps(f.mgr)
	rt0 := readRuntime()
	untraced, steps, failed := f.drive(cfg.seconds / 2)
	steps, failed = steps+wsteps, failed+wfailed
	ls.setRuntime(rt0, readRuntime(), untraced.delivered())
	ls.set("health.sweeps_per_s", float64(sweeps.Load())/untraced.wall().Seconds())

	tr := newTracer(false, 1)
	var cancels []func()
	for _, s := range f.sessions {
		s.tr = tr.session(s.t.id)
		cancels = append(cancels, s.sess.Graph().Tap(s.tr.tap))
	}
	traced, tsteps, tfailed := f.drive(cfg.seconds / 2)
	for _, c := range cancels {
		c()
	}
	ls.setHops(tr, "gps", "parser", "interpreter", "app")
	ls.set("trace.overhead_share", overheadShare(untraced.positionsPerS(), traced.positionsPerS(), true))

	capt := tr.captured()
	t0 := targets["target-0000"]
	ls.setGPSChainReplay(func() core.Producer { return t0.receiver("gps").(core.Producer) }, capt.events)
	if err := ls.setLayerReplay(replicaGraph(f.bp, core.WithComponentOverride("gps", t0.receiver)), 64, capt); err != nil {
		return result{}, err
	}
	ls.setTapReplays(*gpsHealth(0), capt.events)
	scratch := &satSession{t: t0, w: &satWorker{rec: newLatRec(newPhaseClock(0)), batchStart: time.Now()}}
	ls.setDeliverReplay(scratch.deliver, capt)

	replica, err := replicaSession(gpsConfig(f.bp, map[string]*gpsTarget{"replica": t0}, obs.New(), 0))
	if err != nil {
		return result{}, err
	}
	defer replica.close()
	ls.set("health.sweep_us", float64(perCall(2000, nil, func(int) { replica.s.Supervisor().Sweep(time.Now()) }))/1e3)

	checked, bad, err := f.check()
	if err != nil {
		return result{}, err
	}
	_, lists := tr.spanLists()
	printTable("gps-saturated", selfTimes(lists...), ls)
	if err := tr.writeSpans(spanPath("gps-saturated", cfg.seed), map[string]any{"workload": "gps-saturated", "seed": cfg.seed}); err != nil {
		return result{}, err
	}
	attempted := steps + tsteps + checked
	failedAll := failed + tfailed + bad
	return result{Correct: failedAll == 0, Attempted: attempted, Failed: failedAll, Metrics: ls}, nil
}

// replica is a one-session manager built with a workload's session
// configuration, whose supervisor and rules are driven directly.
type replica struct {
	m *runtime.Manager
	s *runtime.Session
}

func replicaSession(cfg runtime.SessionConfig) (*replica, error) {
	cfg.Checkpoints, cfg.CheckpointEvery = nil, 0
	m, err := runtime.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	s, err := m.GetOrCreate("replica")
	if err != nil {
		m.Close()
		return nil, err
	}
	return &replica{m: m, s: s}, nil
}

func (r *replica) close() { r.m.Close() }

// countSweeps registers a sweep counter on every live session's
// supervisor.
func countSweeps(m *runtime.Manager) *atomic.Int64 {
	var n atomic.Int64
	for _, id := range m.IDs() {
		if s, ok := m.Get(id); ok && s.Supervisor() != nil {
			s.Supervisor().OnSweep(func(time.Time) { n.Add(1) })
		}
	}
	return &n
}
