package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"perpos/internal/building"
	"perpos/internal/catalog"
	"perpos/internal/config"
	"perpos/internal/core"
	"perpos/internal/energy"
	"perpos/internal/gps"
	"perpos/internal/obs"
	"perpos/internal/positioning"
	"perpos/internal/registry"
	"perpos/internal/rules"
	"perpos/internal/runtime"
	"perpos/internal/trace"
	"perpos/internal/wifi"
)

// fusionConfigPath is the shipped rules-fusion pipeline definition,
// relative to the repository root.
const fusionConfigPath = "examples/configs/rules-fusion.json"

const (
	fusionSessions = 128
	// fusionPeriod paces every fusion session at 10 source steps/s.
	fusionPeriod = 100 * time.Millisecond
)

// fusionTarget is one fusion target's generated input: a ground-truth
// walk that goes in and out of the evaluation building, and the
// receiver's and WiFi sensor's noise seeds.
type fusionTarget struct {
	id                string
	trace             *trace.Trace
	gpsSeed, wifiSeed int64
}

// fusionTargets draws n targets from the run seed. Each walks a
// Commute trace (outdoor approach of 40–100 m, in through the entrance,
// into an office) and back out, over and over, starting at a random
// point of the round trip — so GPS accuracy degrades and recovers at
// different times on different targets and the rules keep editing live
// graphs. Approach lengths and starting points are drawn one per
// stratum, so every seed puts about the same share of the fleet
// indoors at any time. epochs is the number of 1 s points each trace
// covers.
func fusionTargets(seed int64, n int, b *building.Building, epochs int) map[string]*fusionTarget {
	rng := rand.New(rand.NewSource(seed))
	stratum := func(i int) float64 { return (float64(i) + rng.Float64()) / float64(n) }
	approach := rng.Perm(n)
	ts := make(map[string]*fusionTarget, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("target-%04d", i)
		base := trace.Commute(b, rng.Int63(), 40+60*stratum(approach[i]), time.Second)
		trip := roundTrip(base)
		ts[id] = &fusionTarget{
			id:       id,
			trace:    cycleTrace(trip, int(stratum(i)*float64(len(trip.Points))), epochs),
			gpsSeed:  rng.Int63(),
			wifiSeed: rng.Int63(),
		}
	}
	return ts
}

// roundTrip appends the walk back to the trace's end point, reversed.
func roundTrip(tr *trace.Trace) *trace.Trace {
	pts := append([]trace.Point(nil), tr.Points...)
	for i := len(tr.Points) - 2; i > 0; i-- {
		p := tr.Points[i]
		p.Heading = math.Mod(p.Heading+180, 360)
		pts = append(pts, p)
	}
	return &trace.Trace{Name: tr.Name + "-round-trip", Origin: tr.Origin, Points: pts}
}

// cycleTrace returns n points of the cyclic trace starting at offset,
// re-timed at 1 s from the trace's first timestamp.
func cycleTrace(tr *trace.Trace, offset, n int) *trace.Trace {
	start := tr.Points[0].Time
	pts := make([]trace.Point, n)
	for i := range pts {
		p := tr.Points[(offset+i)%len(tr.Points)]
		p.Time = start.Add(time.Duration(i) * time.Second)
		pts[i] = p
	}
	return &trace.Trace{Name: tr.Name, Origin: tr.Origin, Points: pts}
}

// fusedSession is one fusion-paced session and its subscriber's state.
// Delivery is synchronous inside Session.Step, on the worker that
// issued the step.
type fusedSession struct {
	t    *fusionTarget
	sess *runtime.Session

	mu    sync.Mutex // held by the worker stepping the session
	rec   *latRec
	due   time.Time
	count atomic.Int64
	errs  []float64
	// indoorErrs are the errors of positions whose ground truth lies
	// inside the building, where the E5 band applies.
	indoorErrs []float64
	tr         *sessTrace
}

// deliver is the subscriber: latency from the step's due time, the
// delivered count and the error against ground truth.
func (s *fusedSession) deliver(p positioning.Position) {
	s.rec.add(float64(time.Since(s.due)) / 1e6)
	s.count.Add(1)
	truth, _ := s.t.trace.At(p.Time)
	e := p.Global.DistanceTo(truth.Global)
	s.errs = append(s.errs, e)
	if truth.Indoor {
		s.indoorErrs = append(s.indoorErrs, e)
	}
	if s.tr != nil {
		s.tr.deliver(p)
	}
}

// pacedWorker is one generator goroutine of the open loop. The workers
// share one schedule and each claims the next due step, so a stalled
// worker delays only the step it holds, not a shard of sessions.
type pacedWorker struct {
	rec           latRec
	late          []float64 // ms
	steps, failed int64
	err           error
}

func (w *pacedWorker) run(sched schedule, sessions []*fusedSession, next *atomic.Int64, end time.Time) {
	for {
		due, slot := sched.due(int(next.Add(1) - 1))
		if !due.Before(end) {
			return
		}
		w.late = append(w.late, float64(waitUntil(due))/1e6)
		s := sessions[slot]
		// A session's steps run one at a time even when a worker stalled
		// past the session's next due time.
		s.mu.Lock()
		s.rec, s.due = &w.rec, due
		if s.tr != nil {
			s.tr.stepStart("runtime.Step")
		}
		start := time.Now()
		_, err := s.sess.Step()
		if s.tr != nil {
			s.tr.stepEnd(start, 1)
		}
		s.mu.Unlock()
		w.steps++
		if err != nil {
			w.failed++
			w.err = err
		}
	}
}

// fusionFleet is one built fusion-paced set-up.
type fusionFleet struct {
	reg      *registry.Registry
	loader   *config.Loader
	pipeline config.Pipeline
	base     func(targets map[string]*fusionTarget, hub *obs.Metrics) runtime.SessionConfig
	hub      *obs.Metrics
	mgr      *runtime.Manager
	cancel   context.CancelFunc
	sessions []*fusedSession
	createMs []float64
}

// buildFusionFleet builds the WiFi survey, the registry, the shipped
// rules-fusion pipeline through config.Loader and one session per
// target, and starts every session's supervisor (rules ride its sweep).
func buildFusionFleet(seed int64, targets map[string]*fusionTarget, b *building.Building, network *wifi.Network, def []byte) (*fusionFleet, error) {
	db := wifi.Survey(network, 0, wifi.SurveyConfig{Seed: seed + 1, GridStep: 4})
	reg, err := catalog.Standard(catalog.Deps{Building: b, Database: db})
	if err != nil {
		return nil, err
	}
	p, err := config.Parse(bytes.NewReader(def))
	if err != nil {
		return nil, err
	}
	f := &fusionFleet{
		reg: reg, pipeline: p, hub: obs.New(),
		loader: &config.Loader{
			Registry: reg,
			Features: map[string]func() core.Feature{
				"hdop":     func() core.Feature { return gps.NewHDOPFeature() },
				"periodic": func() core.Feature { return energy.NewPeriodicStrategy(5*time.Second, time.Second) },
			},
		},
	}
	f.base = func(targets map[string]*fusionTarget, hub *obs.Metrics) runtime.SessionConfig {
		return runtime.SessionConfig{
			Provider:      positioning.ProviderInfo{Technology: "fused", TypicalAccuracy: 4},
			History:       32,
			Observability: hub,
			Overrides: func(id string) []core.InstantiateOption {
				t := targets[id]
				return []core.InstantiateOption{
					core.WithComponentOverride("gps", func(cid string) core.Component {
						return gps.NewReceiver(cid, t.trace, gps.Config{Seed: t.gpsSeed, ColdStart: time.Second})
					}),
					core.WithComponentOverride("wifi", func(cid string) core.Component {
						return wifi.NewSensor(cid, network, t.trace, time.Second, t.wifiSeed)
					}),
				}
			},
		}
	}
	f.mgr, err = f.loader.Manager(p, f.base(targets, f.hub))
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
		s := &fusedSession{t: t, sess: sess}
		sess.Provider().Subscribe(s.deliver)
		sess.Supervisor().Start(ctx)
		f.sessions = append(f.sessions, s)
	}
	return f, nil
}

func (f *fusionFleet) close() {
	f.cancel()
	f.mgr.Close()
}

// drive paces the fleet for d from nproc workers sharing one schedule,
// every session due once per fusionPeriod at its own seeded phase, and
// measures it. It returns the phase, the generator's lateness samples
// (ms) and the steps attempted and failed.
func (f *fusionFleet) drive(d time.Duration, phases *rand.Rand) (*phaseResult, []float64, int64, int64) {
	clock := newPhaseClock(d)
	nw := goruntime.GOMAXPROCS(0)
	start := time.Now()
	sched := schedule{start: start, period: fusionPeriod, phases: randomPhases(phases, len(f.sessions), fusionPeriod)}
	var next atomic.Int64
	workers := make([]*pacedWorker, nw)
	var wg sync.WaitGroup
	for i := range workers {
		w := &pacedWorker{rec: newLatRec(clock)}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(sched, f.sessions, &next, start.Add(d))
		}()
	}
	positions := func() int64 {
		var n int64
		for _, s := range f.sessions {
			n += s.count.Load()
		}
		return n
	}
	ph := &phaseResult{windows: measure(d, clock, positions)}
	wg.Wait()
	var late []float64
	var steps, failed int64
	for _, w := range workers {
		ph.merge(&w.rec)
		late = append(late, w.late...)
		steps += w.steps
		failed += w.failed
		if w.err != nil {
			fmt.Printf("step error: %v\n", w.err)
		}
	}
	return ph, late, steps, failed
}

// errors returns the errors of every delivered position and of those
// delivered indoors.
func (f *fusionFleet) errors() (all, indoor []float64) {
	for _, s := range f.sessions {
		all = append(all, s.errs...)
		indoor = append(indoor, s.indoorErrs...)
	}
	return all, indoor
}

// fusionInputs generates the run's inputs: the building model, the WiFi
// deployment, the targets and the shipped pipeline definition.
func fusionInputs(cfg runConfig) (*building.Building, *wifi.Network, map[string]*fusionTarget, []byte, error) {
	def, err := os.ReadFile(fusionConfigPath)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	b := building.Evaluation()
	network := wifi.DefaultDeployment(b)
	// The traces outlast the run: 10 steps/s for the measured seconds,
	// plus set-up and slack.
	epochs := int(cfg.seconds/fusionPeriod) + 600
	return b, network, fusionTargets(cfg.seed, fusionSessions, b, epochs), def, nil
}

func runFusionPaced(cfg runConfig) (result, error) {
	b, network, targets, def, err := fusionInputs(cfg)
	if err != nil {
		return result{}, err
	}
	phases := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	if cfg.trace {
		return traceFusionPaced(cfg, b, network, targets, def, phases)
	}
	f, setups, heapPerSession, err := repeatSetup(func() (*fusionFleet, int, error) {
		f, err := buildFusionFleet(cfg.seed, targets, b, network, def)
		return f, len(targets), err
	})
	if err != nil {
		return result{}, err
	}
	defer f.close()
	_, _, wsteps, wfailed := f.drive(warmup, phases)
	ph, _, steps, failed := f.drive(cfg.seconds, phases)
	steps, failed = steps+wsteps, failed+wfailed
	errs, indoor := f.errors()
	var bad int64
	if err := checkBand(indoor); err != nil {
		bad = 1
		fmt.Printf("check: %v\n", err)
	}
	attempted, failedAll := steps+1, failed+bad
	return result{
		Correct:   failedAll == 0,
		Attempted: attempted,
		Failed:    failedAll,
		Metrics:   endToEnd(setups, heapPerSession, ph, errs, attempted, failedAll),
	}, nil
}

// traceFusionPaced is the traced run: half the time untraced, half
// with every session traced, then replays of the captured stream.
func traceFusionPaced(cfg runConfig, b *building.Building, network *wifi.Network, targets map[string]*fusionTarget, def []byte, phases *rand.Rand) (result, error) {
	f, err := buildFusionFleet(cfg.seed, targets, b, network, def)
	if err != nil {
		return result{}, err
	}
	defer f.close()
	ls := newLayerSet()
	ls.set("runtime.create_ms_p50", percentile(f.createMs, 0.5))

	sweeps := countSweeps(f.mgr)
	var edits atomic.Int64
	for _, s := range f.sessions {
		s.sess.Rules().OnEvent(func(ev rules.Event) {
			if ev.Type == rules.EventEngaged || ev.Type == rules.EventDisengaged {
				edits.Add(1)
			}
		})
	}
	_, _, wsteps, wfailed := f.drive(warmup, phases)
	edits.Store(0)
	sweeps.Store(0)
	rt0 := readRuntime()
	untraced, late, steps, failed := f.drive(cfg.seconds/2, phases)
	steps, failed = steps+wsteps, failed+wfailed
	ls.setRuntime(rt0, readRuntime(), untraced.delivered())
	wall := untraced.wall().Seconds()
	ls.set("health.sweeps_per_s", float64(sweeps.Load())/wall)
	ls.set("rules.edits", float64(edits.Load())/wall)
	ls.set("loadgen.late_ms_p99", percentile(late, 0.99))
	ls.set("runtime.positions_per_session_s", float64(untraced.delivered())/wall/float64(len(f.sessions)))

	tr := newTracer(false, 16)
	var cancels []func()
	for _, s := range f.sessions {
		s.tr = tr.session(s.t.id)
		cancels = append(cancels, s.sess.Graph().Tap(s.tr.tap))
	}
	traced, _, tsteps, tfailed := f.drive(cfg.seconds/2, phases)
	for _, c := range cancels {
		c()
	}
	ls.setHops(tr, "gps", "parser", "interpreter", "wifi", "wifi-positioning", "particle-filter", "app")
	ls.set("trace.overhead_share", overheadShare(untraced.latency(0.5), traced.latency(0.5), false))

	capt := tr.captured()
	ev := capt.events
	t0 := targets["target-0000"]
	newComp := func(typ, id string) func() core.Component {
		reg, _ := f.reg.Lookup(typ)
		return func() core.Component { return reg.New(id) }
	}
	ls.setGPSChainReplay(func() core.Producer {
		return gps.NewReceiver("gps", t0.trace, gps.Config{Seed: t0.gpsSeed, ColdStart: time.Second})
	}, ev)
	ls.set("wifi.sensor_us", float64(stepReplay(func() core.Producer {
		return wifi.NewSensor("wifi", network, t0.trace, time.Second, t0.wifiSeed)
	}, 2000))/1e3)
	ls.set("wifi.engine_us", float64(processReplay(newComp("WiFiPositioning", "wifi-positioning"), inputsOf(ev, map[string]int{"wifi": 0})))/1e3)
	ls.set("filter.particle_us", float64(processReplay(newComp("ParticleFilter", "particle-filter"),
		inputsOf(ev, map[string]int{"interpreter": 0, "wifi-positioning": 1})))/1e3)

	bp, err := f.loader.Blueprint(f.pipeline)
	if err != nil {
		return result{}, err
	}
	overrides := f.base(map[string]*fusionTarget{"replica": t0}, obs.New()).Overrides("replica")
	if err := ls.setLayerReplay(replicaGraph(bp, overrides...), 32, capt); err != nil {
		return result{}, err
	}
	ls.setTapReplays(f.pipeline.Supervision.Policy(), ev)
	scratchRec := newLatRec(newPhaseClock(0))
	scratch := &fusedSession{t: t0, rec: &scratchRec, due: time.Now()}
	ls.setDeliverReplay(scratch.deliver, capt)

	rm, err := f.loader.Manager(f.pipeline, f.base(map[string]*fusionTarget{"replica": t0}, obs.New()))
	if err != nil {
		return result{}, err
	}
	defer rm.Close()
	rs, err := rm.GetOrCreate("replica")
	if err != nil {
		return result{}, err
	}
	ls.set("rules.tap_ns", float64(tapReplay(func() core.TapFunc { return rs.Rules().Tap }, ev)))
	ls.set("rules.sweep_us", float64(perCall(2000, nil, func(int) { rs.Rules().Sweep(time.Now()) }))/1e3)
	ls.set("health.sweep_us", float64(perCall(2000, nil, func(int) { rs.Supervisor().Sweep(time.Now()) }))/1e3)

	_, indoor := f.errors()
	var bad int64
	if err := checkBand(indoor); err != nil {
		bad = 1
		fmt.Printf("check: %v\n", err)
	}
	_, lists := tr.spanLists()
	printTable("fusion-paced", selfTimes(lists...), ls)
	if err := tr.writeSpans(spanPath("fusion-paced", cfg.seed), map[string]any{"workload": "fusion-paced", "seed": cfg.seed}); err != nil {
		return result{}, err
	}
	attempted := steps + tsteps + 1
	failedAll := failed + tfailed + bad
	return result{Correct: failedAll == 0, Attempted: attempted, Failed: failedAll, Metrics: ls}, nil
}
