// Command perpos-run executes a PerPos pipeline over a simulated
// scenario and streams the delivered positions to stdout — the fastest
// way to see the middleware moving data.
//
// Usage:
//
//	perpos-run                      # Fig. 2 fusion pipeline, corridor walk
//	perpos-run -pipeline gps        # plain GPS pipeline (Fig. 1 outdoor half)
//	perpos-run -pipeline roomnumber # the Fig. 1 Room Number application
//	perpos-run -seed 7 -max 20
//	perpos-run -config pipeline.json   # declarative system-level configuration
//	perpos-run -targets 25          # 25 concurrent tracked targets, one
//	                                # session each from rules-fusion.json's
//	                                # layout
//	perpos-run -chaos               # supervised fusion session surviving an
//	                                # injected WiFi outage (self-healing demo)
//	perpos-run -chaos -chaos-script examples/configs/chaos-fusion.json
//	                                # same demo driven by a declarative
//	                                # fault script from the pipeline config
//	perpos-run -chaos -checkpoint-dir /tmp/perpos-ckpt
//	                                # checkpoint the session durably, then
//	                                # evict and resume it from disk
//	perpos-run -targets 25 -metrics-addr :8080
//	                                # serve /metrics (JSON) + /debug/pprof
//	                                # while the workload runs; the final
//	                                # snapshot is echoed on exit
//	perpos-run -rollout             # roll a live fleet from the GPS-only
//	                                # revision to the fusion revision
//	                                # (canary → gate → ramp, zero downtime)
//	perpos-run -rollout-fail        # same roll with a broken WiFi branch:
//	                                # the canary gate trips and the fleet
//	                                # is rolled back to the old revision
//	perpos-run -cluster 3          # fault-tolerant session tier: 3 nodes,
//	                                # 60 targets, a hard node kill with
//	                                # checkpointed failover, then a node
//	                                # join with minimal-range rebalancing
//	perpos-run -cluster 3 -node n2 # same demo, killing node n2
//	perpos-run -rules examples/configs/rules-fusion.json
//	                                # self-adaptation demo: the whole
//	                                # pipeline from the file; its rules
//	                                # engage live graph edits as the GPS
//	                                # accuracy degrades, defer to a
//	                                # supervisor reroute during a WiFi
//	                                # outage, and unwind on recovery
//
// The default mode and the -targets, -chaos and -rollout demos build
// their pipelines from the definitions in examples/configs, which the
// binary embeds, so they run from any directory: rules-fusion.json for
// the fusion pipeline (its layout alone for the default mode, through
// eval.BuildFig2; without its rules for -chaos, and without its rules
// and supervision for -targets) and fusion-upgrade.json for the
// rollout. Each binds a smaller seeded particle filter per session.
//
// Configurations given with -config (see internal/config) may declare
// three placeholders, which perpos-run binds: "gps" (a receiver on a
// commute trace), "wifi" (a WiFi sensor on the same trace) and "app" (a
// printing sink), plus every component type in internal/catalog and the
// features "satellites", "hdop" and "parser-stats".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"perpos/examples/configs"
	"perpos/internal/building"
	"perpos/internal/catalog"
	"perpos/internal/chaos"
	"perpos/internal/checkpoint"
	"perpos/internal/cluster"
	"perpos/internal/config"
	"perpos/internal/core"
	"perpos/internal/eval"
	"perpos/internal/filter"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/obs"
	"perpos/internal/positioning"
	"perpos/internal/rules"
	"perpos/internal/runtime"
	"perpos/internal/trace"
	"perpos/internal/wifi"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perpos-run:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perpos-run", flag.ContinueOnError)
	pipeline := fs.String("pipeline", "fusion", "pipeline: fusion, gps or roomnumber")
	configPath := fs.String("config", "", "JSON pipeline definition (system-level configuration)")
	seed := fs.Int64("seed", 1, "simulation seed")
	maxLines := fs.Int("max", 50, "maximum positions to print (0 = all)")
	targets := fs.Int("targets", 0, "track N concurrent targets through per-target sessions (multi-tenant mode)")
	chaosDemo := fs.Bool("chaos", false, "run a supervised fusion session through an injected WiFi outage")
	rolloutDemo := fs.Bool("rollout", false, "roll a live session fleet from the GPS-only revision to the fusion revision (canary → gate → ramp)")
	rolloutFail := fs.Bool("rollout-fail", false, "rollout demo with a broken WiFi branch: the canary gate trips and the fleet rolls back")
	chaosScript := fs.String("chaos-script", "", "pipeline JSON whose chaos block drives the -chaos fault script (default: built-in kill/heal)")
	rulesPath := fs.String("rules", "", "pipeline JSON with supervision and rules blocks to run the self-adaptation demo on (engage → arbitrate → disengage transcript)")
	checkpointDir := fs.String("checkpoint-dir", "", "directory for durable session checkpoints; with -chaos the session is evicted and resumed from it")
	clusterN := fs.Int("cluster", 0, "run the distributed session tier demo with N nodes: kill one node (checkpointed failover), then join a fresh one (minimal-range rebalance)")
	nodeID := fs.String("node", "", "with -cluster: the node ID to kill mid-demo (default: the node carrying the most sessions)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics (JSON) and /debug/pprof on this address while running (\":0\" picks a free port); with -targets or -chaos the session runtime reports into it")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The metrics listener outlives the workload: the final snapshot is
	// scraped from our own endpoint — the same bytes an operator's curl
	// would see — before the deferred Close releases the port (defers run
	// LIFO, so the dump precedes the shutdown).
	var hub *obs.Metrics
	if *metricsAddr != "" {
		hub = obs.New()
		srv, err := obs.Serve(*metricsAddr, hub)
		if err != nil {
			return err
		}
		defer srv.Close()
		defer dumpMetrics(srv.Addr())
		fmt.Printf("metrics: http://%s/metrics\n", srv.Addr())
	}

	if *clusterN > 0 {
		return runCluster(*clusterN, *nodeID, *targets, *configPath, *seed, hub)
	}
	if *configPath != "" {
		return runConfigured(*configPath, *seed, *maxLines)
	}
	if *targets > 0 {
		return runTargets(*targets, *seed, hub)
	}
	if *rulesPath != "" {
		return runRules(*rulesPath, *seed, hub)
	}
	if *chaosDemo {
		return runChaos(*seed, *checkpointDir, *chaosScript, hub)
	}
	if *rolloutDemo || *rolloutFail {
		return runRollout(*seed, *rolloutFail, hub)
	}

	switch *pipeline {
	case "fusion":
		return runFusion(*seed, *maxLines)
	case "gps":
		return runGPS(*seed, *maxLines)
	case "roomnumber":
		return runRoomNumber(*seed, *maxLines)
	default:
		return fmt.Errorf("unknown pipeline %q", *pipeline)
	}
}

// dumpMetrics scrapes the process's own /metrics endpoint and echoes
// the JSON snapshot to stdout — the state an operator's last curl
// would have seen.
func dumpMetrics(addr string) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perpos-run: metrics scrape:", err)
		return
	}
	defer resp.Body.Close()
	fmt.Println("=== final /metrics snapshot ===")
	_, _ = io.Copy(os.Stdout, resp.Body)
}

// runConfigured builds and runs a declarative pipeline definition.
func runConfigured(path string, seed int64, maxLines int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	p, err := config.Parse(f)
	if err != nil {
		return err
	}

	b := building.Evaluation()
	network := wifi.DefaultDeployment(b)
	db := wifi.Survey(network, 0, wifi.SurveyConfig{Seed: seed + 1})
	reg, err := catalog.Standard(catalog.Deps{Building: b, Database: db})
	if err != nil {
		return err
	}
	tr := trace.Commute(b, seed, 150, 500*time.Millisecond)

	printed := 0
	// The configured application consumes high-level outputs only, so
	// declarative resolution has to build the processing chain instead
	// of wiring raw sensor data straight to the app.
	sink := core.NewSink("app",
		[]core.Kind{positioning.KindPosition, positioning.KindRoom},
		core.WithCallback(func(s core.Sample) {
			if maxLines > 0 && printed >= maxLines {
				return
			}
			printed++
			fmt.Printf("%v %v\n", s.Kind, s.Payload)
		}))
	loader := &config.Loader{
		Registry:  reg,
		Instances: map[string]core.Component{},
		Features: map[string]func() core.Feature{
			"satellites":   func() core.Feature { return gps.NewSatellitesFeature() },
			"hdop":         func() core.Feature { return gps.NewHDOPFeature() },
			"parser-stats": func() core.Feature { return gps.NewStatsFeature() },
		},
	}
	// The placeholders a definition may declare; each binding is
	// optional (roomnumber.json has no gps slot). A resolving
	// definition's probe gets a stand-in of each.
	var bindings []core.InstantiateOption
	for id, factory := range map[string]core.ComponentFactory{
		"gps": func(id string) core.Component {
			return gps.NewReceiver(id, tr, gps.Config{Seed: seed + 2, ColdStart: 2 * time.Second})
		},
		"wifi": func(id string) core.Component { return wifi.NewSensor(id, network, tr, 2*time.Second, seed+3) },
		"app":  func(string) core.Component { return sink },
	} {
		loader.Instances[id] = factory(id)
		bindings = append(bindings, core.WithOptionalOverride(id, factory))
	}
	bp, err := loader.Blueprint(p)
	if err != nil {
		return err
	}
	g, err := bp.Instantiate(bindings...)
	if err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("configured pipeline invalid: %w", err)
	}
	if _, err := g.Run(0); err != nil {
		return err
	}
	fmt.Printf("pipeline %q delivered %d samples\n", p.Name, sink.Len())
	return nil
}

// runTargets is the multi-tenant mode: N targets tracked through the
// positioning manager, each backed by its own pipeline session
// instantiated from ONE shared Fig. 2 fusion blueprint, the layout of
// rules-fusion.json (building model and WiFi database shared, sensors,
// filter and sink per target), replayed concurrently and summarised
// deterministically. A non-nil hub gets the full runtime observability
// wiring (lifecycle gauges, emission taps, tree depths).
func runTargets(n int, seed int64, hub *obs.Metrics) error {
	b := building.Evaluation()
	network := wifi.DefaultDeployment(b)
	db := wifi.Survey(network, 0, wifi.SurveyConfig{Seed: seed + 1})
	loader, p, err := fusionPipeline(b, db, "rules-fusion.json")
	if err != nil {
		return err
	}
	// The replay drives each session synchronously to the end of its
	// trace, with no supervisor sweeping: the layout alone.
	p.Supervision, p.Rules = nil, nil

	rt, err := loader.Manager(p, runtime.SessionConfig{
		Provider:      positioning.ProviderInfo{Technology: "fused", TypicalAccuracy: 4},
		History:       64,
		Observability: hub,
		Overrides: func(sessionID string) []core.InstantiateOption {
			var i int64
			fmt.Sscanf(sessionID, "target-%d", &i)
			tr := trace.Commute(b, seed+i, 120, 500*time.Millisecond)
			return []core.InstantiateOption{
				core.WithComponentOverride("gps", func(cid string) core.Component {
					return gps.NewReceiver(cid, tr, gps.Config{Seed: seed + i + 100, ColdStart: 2 * time.Second})
				}),
				core.WithComponentOverride("wifi", func(cid string) core.Component {
					return wifi.NewSensor(cid, network, tr, 2*time.Second, seed+i+200)
				}),
				particleFilter(b, 200, seed+2),
			}
		},
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	pm := &positioning.Manager{}
	pm.BindSource(rt)

	type outcome struct {
		delivered int
		last      positioning.Position
	}
	outcomes := make([]outcome, n)
	sessions := make([]*runtime.Session, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("target-%03d", i)
		tgt, err := pm.TrackErr(id)
		if err != nil {
			return err
		}
		i := i
		tgt.Providers()[0].Subscribe(func(pos positioning.Position) {
			outcomes[i].delivered++
			outcomes[i].last = pos
		})
		s, ok := rt.Get(id)
		if !ok {
			return fmt.Errorf("no session for %s", id)
		}
		sessions[i] = s
	}

	// Replay every target's trace concurrently, one goroutine per
	// session; propagation within a session stays synchronous, so each
	// target's delivery sequence is deterministic.
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, s := range sessions {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Run(0)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("target-%03d: %w", i, err)
		}
	}

	total := 0
	for i, o := range outcomes {
		fmt.Printf("target-%03d: %d positions, last %v\n", i, o.delivered, o.last)
		total += o.delivered
		pm.Untrack(fmt.Sprintf("target-%03d", i))
	}
	fmt.Printf("%d targets, %d positions total, %.0f samples/s aggregate\n",
		n, total, float64(total)/elapsed.Seconds())
	if rt.Len() != 0 {
		return fmt.Errorf("%d sessions leaked after untrack", rt.Len())
	}
	return nil
}

// runChaos is the self-healing demo: a supervised fusion session whose
// WiFi sensor is chaos-killed mid-run. The session runs rules-fusion.json
// without its rules, so the supervision block alone acts: the
// supervisor trips the breaker, degrades the pipeline to the GPS branch
// (positions keep flowing), and restores full fusion when the sensor
// comes back. The fault script comes from a pipeline definition's chaos
// block when scriptPath is set; with ckptDir the session also
// checkpoints durably and is evicted and resumed from disk at the end —
// the crash-recovery path exercised interactively. A non-nil hub
// additionally collects runtime metrics, including checkpoint write
// accounting.
func runChaos(seed int64, ckptDir, scriptPath string, hub *obs.Metrics) error {
	script := chaos.Schedule{Steps: []chaos.Step{
		{At: 0, Action: chaos.ActionKill, Target: "wifi"},
		{At: 400 * time.Millisecond, Action: chaos.ActionHeal, Target: "wifi"},
	}}
	if scriptPath != "" {
		f, err := os.Open(scriptPath)
		if err != nil {
			return err
		}
		p, err := config.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		if p.Chaos == nil {
			return fmt.Errorf("%s has no chaos block", scriptPath)
		}
		script = p.Chaos.Schedule()
		fmt.Printf("fault script %q: %d steps\n", p.Name, len(script.Steps))
	}

	b := building.Evaluation()
	network := wifi.DefaultDeployment(b)
	db := wifi.Survey(network, 0, wifi.SurveyConfig{Seed: seed + 1, GridStep: 4})
	loader, p, err := fusionPipeline(b, db, "rules-fusion.json")
	if err != nil {
		return err
	}
	p.Rules = nil
	tr := trace.CorridorWalk(b, seed, 600, time.Second)

	var store *checkpoint.Store
	if ckptDir != "" {
		var storeOpts checkpoint.Options
		if hub != nil {
			storeOpts.OnAppend = hub.CheckpointAppend
		}
		store, err = checkpoint.Open(ckptDir, storeOpts)
		if err != nil {
			return err
		}
		defer store.Close()
	}

	var wifiChaos *chaos.Source
	m, err := loader.Manager(p, runtime.SessionConfig{
		Provider:      positioning.ProviderInfo{Technology: "fused", TypicalAccuracy: 4},
		History:       32,
		Observability: hub,
		Overrides: func(string) []core.InstantiateOption {
			return []core.InstantiateOption{
				core.WithComponentOverride("gps", func(cid string) core.Component {
					return gps.NewReceiver(cid, tr, gps.Config{Seed: seed + 3, ColdStart: time.Second})
				}),
				core.WithComponentOverride("wifi", func(cid string) core.Component {
					wifiChaos = chaos.WrapSource(wifi.NewSensor(cid, network, tr, time.Second, seed+4))
					return wifiChaos
				}),
				particleFilter(b, 150, seed+2),
			}
		},
		Checkpoints:     store,
		CheckpointEvery: 50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer m.Close()

	s, err := m.GetOrCreate("demo")
	if err != nil {
		return err
	}
	provider := s.Provider()
	var delivered atomic.Int64
	provider.Subscribe(func(positioning.Position) { delivered.Add(1) })
	provider.NotifyAvailability(func(a positioning.Availability) {
		fmt.Printf("provider -> %s\n", a)
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx, core.WithSourceInterval(5*time.Millisecond)); err != nil {
		return err
	}
	wait := func(what string, cond func() bool) error {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return nil
			}
			time.Sleep(2 * time.Millisecond)
		}
		return errors.New("timed out waiting for " + what)
	}

	if err := wait("fused positions", func() bool { return delivered.Load() >= 5 }); err != nil {
		return err
	}
	fmt.Printf("fusion delivering (%d positions); starting fault script\n", delivered.Load())

	scriptDone := script.Start(ctx, map[string]chaos.Controllable{"wifi": wifiChaos})
	if err := wait("degradation", func() bool {
		return provider.Availability() == positioning.TemporarilyUnavailable && s.Supervisor().Degraded()
	}); err != nil {
		return err
	}
	atOutage := delivered.Load()
	if err := wait("GPS-branch positions during the outage", func() bool {
		return delivered.Load() >= atOutage+5
	}); err != nil {
		return err
	}
	fmt.Printf("degraded to GPS branch; %d positions delivered during the outage\n",
		delivered.Load()-atOutage)

	if err := wait("recovery", func() bool {
		return provider.Availability() == positioning.Available && !s.Supervisor().Degraded()
	}); err != nil {
		return err
	}
	if err := <-scriptDone; err != nil {
		return fmt.Errorf("fault script: %w", err)
	}
	_ = s.Stop() // the injected outage leaves expected errors behind
	for _, h := range s.Monitor().Snapshot() {
		fmt.Printf("node %-18s errors=%d restarts=%d trips=%d\n", h.Node, h.Errors, h.Restarts, h.Trips)
	}
	fmt.Printf("survived injected outage: %d positions total, fusion restored\n", delivered.Load())

	if store != nil {
		// Crash-recovery epilogue: evict (final checkpoint to disk), then
		// rebuild the session from the blueprint and its stored state.
		m.Evict("demo")
		s2, err := m.ResumeSession("demo")
		if err != nil {
			return fmt.Errorf("resume from checkpoint: %w", err)
		}
		pf, ok := s2.Graph().Node("particle-filter")
		if !ok {
			return errors.New("resumed session lost its particle filter")
		}
		fmt.Printf("evicted and resumed from %s: particle-filter logical clock %d, provider %s\n",
			ckptDir, pf.Clock(), s2.Provider().Availability())

		var resumed atomic.Int64
		s2.Provider().Subscribe(func(positioning.Position) { resumed.Add(1) })
		ctx2, cancel2 := context.WithCancel(context.Background())
		defer cancel2()
		if err := s2.Start(ctx2, core.WithSourceInterval(5*time.Millisecond)); err != nil {
			return err
		}
		if err := wait("positions from the resumed session", func() bool { return resumed.Load() >= 5 }); err != nil {
			return err
		}
		_ = s2.Stop()
		fmt.Printf("resumed session delivered %d positions from checkpointed state\n", resumed.Load())
	}
	return nil
}

// runRules is the self-adaptation demo: a fusion session built
// entirely from the pipeline definition at path, whose supervision
// block and rules block must both be present. A chaos corruptor pins the GPS HDOP on cue — the indoor walk's
// true HDOP sits above every threshold, so both the healthy and the
// degraded phases rewrite it. When accuracy degrades the insert rule
// splices an HDOP filter into the live pipeline and the swap rule
// reroutes delivery to the WiFi branch; a chaos WiFi outage then forces
// the supervisor to seize the contested edge (supervisor reroutes beat
// rules); after the heal the swap rule re-engages on its own, and a
// clean signal unwinds everything. The indented transcript lines are
// the rule engine's own event stream.
func runRules(path string, seed int64, hub *obs.Metrics) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	p, err := config.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	if p.Rules == nil || p.Supervision == nil {
		return fmt.Errorf("%s needs a rules block and a supervision block", path)
	}

	b := building.Evaluation()
	network := wifi.DefaultDeployment(b)
	db := wifi.Survey(network, 0, wifi.SurveyConfig{Seed: seed + 1, GridStep: 4})
	loader, err := eval.FusionLoader(b, db)
	if err != nil {
		return err
	}
	rs, err := loader.Rules(p.Rules)
	if err != nil {
		return err
	}
	var insertRule, swapRule, insertNode string
	for _, r := range rs {
		fmt.Printf("rule %-16s when %s\n", r.Name, r.When)
		switch a := r.Action.(type) {
		case *rules.InsertAction:
			insertRule, insertNode = r.Name, a.ID
		case *rules.SwapAction:
			swapRule = r.Name
		}
	}
	if insertRule == "" || swapRule == "" {
		return fmt.Errorf("%s: the demo script needs an insert rule and a swap rule", path)
	}

	tr := trace.CorridorWalk(b, seed, 600, time.Second)

	// The script steers this: the corruptor pins every fix's HDOP so the
	// rule conditions see a crisp signal. 9.9 sits above both engage
	// thresholds; 3.0 sits inside the hysteresis band (rules stay
	// latched) yet below the inserted filter's drop cutoff, so the GPS
	// branch still delivers while the supervisor owns the edge; 1.0
	// clears everything.
	hdop := &atomic.Value{}
	hdop.Store(1.0)
	corrupt := func(s core.Sample) core.Sample {
		raw, ok := s.Payload.(string)
		if !ok {
			return s
		}
		s.Payload = gps.RewriteHDOP(raw, hdop.Load().(float64))
		return s
	}

	var wifiChaos *chaos.Source
	m, err := loader.Manager(p, runtime.SessionConfig{
		Provider:      positioning.ProviderInfo{Technology: "fused", TypicalAccuracy: 4},
		History:       32,
		Observability: hub,
		Overrides: func(string) []core.InstantiateOption {
			return []core.InstantiateOption{
				core.WithComponentOverride("gps", func(cid string) core.Component {
					return chaos.WrapSource(
						gps.NewReceiver(cid, tr, gps.Config{Seed: seed + 3, ColdStart: time.Second}),
						chaos.WithCorrupt(1, corrupt))
				}),
				core.WithComponentOverride("wifi", func(cid string) core.Component {
					wifiChaos = chaos.WrapSource(wifi.NewSensor(cid, network, tr, time.Second, seed+4))
					return wifiChaos
				}),
				particleFilter(b, 150, seed+2),
			}
		},
	})
	if err != nil {
		return err
	}
	defer m.Close()

	s, err := m.GetOrCreate("demo")
	if err != nil {
		return err
	}
	eng := s.Rules()
	eng.OnEvent(func(ev rules.Event) {
		if ev.Reason != "" {
			fmt.Printf("  rule %-16s %-12s (%s)\n", ev.Rule, ev.Type, ev.Reason)
			return
		}
		fmt.Printf("  rule %-16s %s\n", ev.Rule, ev.Type)
	})
	var delivered atomic.Int64
	s.Provider().Subscribe(func(positioning.Position) { delivered.Add(1) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx, core.WithSourceInterval(5*time.Millisecond)); err != nil {
		return err
	}
	wait := func(what string, cond func() bool) error {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return nil
			}
			time.Sleep(2 * time.Millisecond)
		}
		return errors.New("timed out waiting for " + what)
	}
	hasNode := func(id string) bool {
		_, ok := s.Graph().Node(id)
		return ok
	}

	if err := wait("fused positions", func() bool { return delivered.Load() >= 5 }); err != nil {
		return err
	}
	fmt.Printf("fusion delivering (%d positions); degrading GPS accuracy (HDOP -> 9.9)\n", delivered.Load())

	hdop.Store(9.9)
	if err := wait("rule engagement", func() bool {
		return eng.Engaged(insertRule) && eng.Engaged(swapRule) && hasNode(insertNode)
	}); err != nil {
		return err
	}
	fmt.Printf("rules engaged: %s spliced into the live pipeline, delivery rerouted to the WiFi branch\n", insertNode)

	// Ease HDOP into the hysteresis band before the outage: the rules
	// stay latched, but the spliced filter passes fixes again, so the
	// supervisor's GPS fallback has something to deliver.
	hdop.Store(3.0)
	wifiChaos.Kill(nil)
	if err := wait("supervisor arbitration", func() bool {
		return s.Supervisor().Degraded() && !eng.Engaged(swapRule)
	}); err != nil {
		return err
	}
	atOutage := delivered.Load()
	if err := wait("positions during the outage", func() bool {
		return delivered.Load() >= atOutage+5
	}); err != nil {
		return err
	}
	fmt.Println("WiFi outage: supervisor reroute seized the contested edge, swap rule stood down; positions kept flowing")

	hdop.Store(9.9) // accuracy is still bad when the sensor returns
	wifiChaos.Heal()
	if err := wait("re-engagement after the heal", func() bool {
		return !s.Supervisor().Degraded() && eng.Engaged(swapRule)
	}); err != nil {
		return err
	}
	fmt.Println("WiFi healed: supervisor released the edge, swap rule re-engaged on its own")

	hdop.Store(1.0)
	if err := wait("disengagement on the clean signal", func() bool {
		return !eng.Engaged(insertRule) && !eng.Engaged(swapRule) && !hasNode(insertNode)
	}); err != nil {
		return err
	}
	fmt.Println("accuracy recovered: rules disengaged, graph restored")

	_ = s.Stop() // the injected outage leaves expected errors behind
	for _, st := range eng.Status() {
		fmt.Printf("rule %-16s engagements=%d disengagements=%d deferrals=%d rollbacks=%d quarantined=%v\n",
			st.Name, st.Engagements, st.Disengagements, st.Deferrals, st.Rollbacks, st.Quarantined)
	}
	fmt.Printf("self-adaptation demo complete: %d positions total\n", delivered.Load())
	return nil
}

// runRollout is the fleet-adaptation demo: a fleet of live sessions on
// the GPS-only revision of fusion-upgrade.json rolls to its fusion
// revision through the manager's canary → gate → ramp driver,
// while every session keeps delivering positions. With fail=true the
// WiFi branch the upgrade introduces is chaos-killed on arrival: the
// canary cohort's error delta trips the gate, the canaries are migrated
// back, and the fleet ends where it started — the paper's adaptation
// seam driven by observed behavior instead of an operator.
func runRollout(seed int64, fail bool, hub *obs.Metrics) error {
	const fleet = 24
	if hub == nil {
		hub = obs.New() // the gate needs metrics even without -metrics-addr
	}
	b := building.Evaluation()
	network := wifi.DefaultDeployment(b)
	db := wifi.Survey(network, 0, wifi.SurveyConfig{Seed: seed + 1, GridStep: 4})
	loader, p, err := fusionPipeline(b, db, "fusion-upgrade.json")
	if err != nil {
		return err
	}
	tr := trace.CorridorWalk(b, seed, 600, time.Second)

	m, err := loader.Manager(p, runtime.SessionConfig{
		Provider:      positioning.ProviderInfo{Technology: "fused", TypicalAccuracy: 4},
		History:       16,
		Observability: hub,
		Overrides: func(sessionID string) []core.InstantiateOption {
			var i int64
			fmt.Sscanf(sessionID, "target-%d", &i)
			return []core.InstantiateOption{
				core.WithComponentOverride("gps", func(cid string) core.Component {
					return gps.NewReceiver(cid, tr, gps.Config{Seed: seed + i + 100, ColdStart: time.Second})
				}),
				// Optional: revision 1 has no wifi slot; the override only
				// binds once a migration instantiates the fusion branch.
				core.WithOptionalOverride("wifi", func(cid string) core.Component {
					sensor := wifi.NewSensor(cid, network, tr, time.Second, seed+i+200)
					if !fail {
						return sensor
					}
					broken := chaos.WrapSource(sensor)
					broken.Kill(nil) // the regression ships with revision 2
					return broken
				}),
				particleFilter(b, 100, seed+2),
			}
		},
	})
	if err != nil {
		return err
	}
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered atomic.Int64
	for i := 0; i < fleet; i++ {
		s, err := m.GetOrCreate(fmt.Sprintf("target-%03d", i))
		if err != nil {
			return err
		}
		s.Provider().Subscribe(func(positioning.Position) { delivered.Add(1) })
		if err := s.Start(ctx, core.WithSourceInterval(5*time.Millisecond)); err != nil {
			return err
		}
	}
	wait := func(what string, cond func() bool) error {
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return nil
			}
			time.Sleep(2 * time.Millisecond)
		}
		return errors.New("timed out waiting for " + what)
	}
	if err := wait("first positions", func() bool { return delivered.Load() >= fleet }); err != nil {
		return err
	}
	fmt.Printf("fleet live: %d sessions on revision %d (%s)\n", m.Len(), m.ActiveRevision(), m.Blueprints().Name())

	gate := runtime.GateConfig{MaxErrors: 1 << 20}
	if fail {
		gate.MaxErrors = 0 // any canary error on the new branch trips
	}
	rep, err := m.Rollout(ctx, runtime.RolloutConfig{
		To:             2,
		CanaryFraction: 0.25,
		CanaryWindow:   400 * time.Millisecond,
		Gate:           gate,
		Log: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	})
	rolledBack := errors.Is(err, runtime.ErrRolloutRolledBack)
	if err != nil && !rolledBack {
		return err
	}

	onRev := func(rev int) int {
		n := 0
		for _, id := range m.IDs() {
			if s, ok := m.Get(id); ok && s.Revision() == rev {
				n++
			}
		}
		return n
	}
	fmt.Printf("rollout counters: started=%d completed=%d rolled_back=%d upgraded=%d reverted=%d failed=%d\n",
		hub.RolloutsStarted.Value(), hub.RolloutsCompleted.Value(), hub.RolloutsRolledBack.Value(),
		hub.RolloutUpgraded.Value(), hub.RolloutReverted.Value(), hub.RolloutFailed.Value())

	switch {
	case rolledBack && !fail:
		return fmt.Errorf("unexpected rollback: %s", rep.Reason)
	case !rolledBack && fail:
		return errors.New("broken-branch rollout was not rolled back")
	case rolledBack:
		fmt.Printf("rollout rolled back: %s\n", rep.Reason)
		fmt.Printf("fleet back on revision 1: %d/%d sessions, %d canaries reverted, active revision %d\n",
			onRev(1), m.Len(), rep.Reverted, m.ActiveRevision())
	default:
		fmt.Printf("rollout complete: fleet on revision 2 (%d/%d sessions, %d canaries, 0 dropped)\n",
			onRev(2), m.Len(), rep.Canaries)
	}

	// Either way the fleet must still be serving.
	before := delivered.Load()
	if err := wait("positions after the roll", func() bool { return delivered.Load() >= before+fleet }); err != nil {
		return err
	}
	fmt.Printf("fleet still delivering: %d positions total, %d sessions live\n", delivered.Load(), m.Len())
	return nil
}

// fusionPipeline parses the embedded definition name and returns it
// with its loader.
func fusionPipeline(b *building.Building, db *wifi.Database, name string) (*config.Loader, config.Pipeline, error) {
	loader, err := eval.FusionLoader(b, db)
	if err != nil {
		return nil, config.Pipeline{}, err
	}
	p, err := configs.Load(name)
	return loader, p, err
}

// particleFilter binds each session's "particle-filter" slot, where its
// revision has one, to a seeded filter of the given size: the demos run
// smaller filters than the registry's default.
func particleFilter(b *building.Building, particles int, seed int64) core.InstantiateOption {
	return core.WithOptionalOverride("particle-filter", func(cid string) core.Component {
		return filter.NewParticleFilter(cid, b, filter.Config{Particles: particles, Seed: seed})
	})
}

func runFusion(seed int64, maxLines int) error {
	g, layer, _, provider, err := eval.BuildFig2(seed)
	if err != nil {
		return err
	}
	defer layer.Close()

	printed := 0
	cancel := provider.Subscribe(func(pos positioning.Position) {
		if maxLines > 0 && printed >= maxLines {
			return
		}
		printed++
		fmt.Println(pos)
	})
	defer cancel()

	_, err = g.Run(0)
	return err
}

func runGPS(seed int64, maxLines int) error {
	b := building.Evaluation()
	tr := trace.Commute(b, seed, 150, 500*time.Millisecond)
	g, layer, sink, err := eval.BuildGPSChannelPipeline(tr, gps.Config{Seed: seed + 1})
	if err != nil {
		return err
	}
	defer layer.Close()
	if _, err := g.Run(0); err != nil {
		return err
	}
	for i, s := range sink.Received() {
		if maxLines > 0 && i >= maxLines {
			break
		}
		fmt.Println(s.Payload.(positioning.Position))
	}
	return nil
}

func runRoomNumber(seed int64, maxLines int) error {
	printed := 0
	g, _, err := eval.BuildFig1(seed, 150, func(port int, in core.Sample) {
		if maxLines > 0 && printed >= maxLines {
			return
		}
		printed++
		switch port {
		case 0:
			fmt.Printf("map point: %v\n", in.Payload.(positioning.Position))
		case 1:
			fmt.Printf("room: %s\n", in.Payload.(string))
		}
	})
	if err != nil {
		return err
	}
	_, err = g.Run(0)
	return err
}

// runCluster is the fault-tolerance demo: an n-node session tier
// behind a consistent-hash router, tracking a fleet of targets through
// GPS→Kalman sessions. Mid-run one node is hard-killed — the router's
// breaker trips, the node is declared dead, and every one of its
// sessions is resurrected on a survivor from its last durable
// checkpoint. Then a fresh node joins and the minimal hash range is
// rebalanced onto it via live handoffs. A pipeline definition's
// cluster block (via -config) overrides the demo's probing and handoff
// policy.
func runCluster(n int, victim string, targets int, configPath string, seed int64, hub *obs.Metrics) error {
	if n < 2 {
		return fmt.Errorf("-cluster needs at least 2 nodes, got %d", n)
	}
	if targets <= 0 {
		targets = 60
	}
	if hub == nil {
		hub = obs.New()
	}

	// Demo-paced policy: quick probes so the kill → quarantine → death
	// → failover arc fits in a couple of seconds of transcript.
	pol := cluster.Policy{
		ProbeInterval:        50 * time.Millisecond,
		MaxConsecutiveErrors: 2,
		DeathAfter:           400 * time.Millisecond,
		Retries:              -1,
	}
	ckptEvery := 4
	if configPath != "" {
		f, err := os.Open(configPath)
		if err != nil {
			return err
		}
		p, err := config.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		if p.Cluster != nil {
			pol = p.Cluster.Policy()
			if p.Cluster.Nodes > 0 {
				n = p.Cluster.Nodes
			}
			if p.Cluster.CheckpointEvery != 0 {
				ckptEvery = p.Cluster.CheckpointEvery
			}
		}
	}

	origin := geo.Point{Lat: 56.1629, Lon: 10.2039}
	bp, err := catalog.KalmanBlueprint(geo.NewProjection(origin), 0.5)
	if err != nil {
		return err
	}
	session := runtime.SessionConfig{
		Blueprint:     bp,
		Provider:      positioning.ProviderInfo{Technology: "gps", TypicalAccuracy: 5},
		History:       16,
		Observability: hub,
		Overrides: func(sessionID string) []core.InstantiateOption {
			var i int64
			fmt.Sscanf(sessionID, "tag-%d", &i)
			tr := trace.OutdoorTrack(origin, seed+i, 2, 100, 1.4, time.Second)
			return []core.InstantiateOption{
				core.WithComponentOverride("gps", func(cid string) core.Component {
					return gps.NewReceiver(cid, tr, gps.Config{Seed: seed + i + 100, ColdStart: time.Second, Loop: true})
				}),
			}
		},
	}

	startNode := func(id string) (*cluster.Node, error) {
		dir, err := os.MkdirTemp("", "perpos-cluster-"+id+"-")
		if err != nil {
			return nil, err
		}
		node, err := cluster.StartNode(cluster.NodeConfig{
			ID:              id,
			Dir:             dir,
			Session:         session,
			CheckpointEvery: ckptEvery,
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		return node, nil
	}

	router := cluster.NewRouter(cluster.RouterConfig{
		Policy:  pol,
		Metrics: hub,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	defer router.Close()

	nodes := make(map[string]*cluster.Node)
	defer func() {
		for _, node := range nodes {
			if !node.Down() {
				node.StopPump()
				node.Close()
			}
			os.RemoveAll(node.Dir())
		}
	}()
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("n%d", i)
		node, err := startNode(id)
		if err != nil {
			return err
		}
		nodes[id] = node
		if err := router.Join(node.Info()); err != nil {
			return err
		}
	}
	router.Start()

	for i := 0; i < targets; i++ {
		if err := router.Track(fmt.Sprintf("tag-%02d", i)); err != nil {
			return err
		}
	}
	for _, node := range nodes {
		node.StartPump(20 * time.Millisecond)
	}
	fmt.Printf("tracking %d targets across %d nodes\n", targets, n)
	time.Sleep(600 * time.Millisecond) // let filters warm and checkpoints land
	printMembers(router)

	// Pick the victim: the flag, or the busiest node.
	if victim == "" {
		for _, m := range router.Members() {
			if victim == "" || m.Sessions > sessionsOf(router, victim) {
				victim = m.ID
			}
		}
	}
	node, ok := nodes[victim]
	if !ok {
		return fmt.Errorf("-node %q: no such node", victim)
	}
	fmt.Printf("\n=== hard-killing %s (%d sessions) ===\n", victim, node.Sessions())
	node.Kill(nil)

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if clusterSettledOff(router, victim) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !clusterSettledOff(router, victim) {
		return fmt.Errorf("failover did not settle: %d in flight", router.InFlight())
	}
	fmt.Println("failover complete: every session resumed on a survivor")
	printMembers(router)

	joiner := fmt.Sprintf("n%d", n+1)
	fmt.Printf("\n=== joining fresh node %s ===\n", joiner)
	jn, err := startNode(joiner)
	if err != nil {
		return err
	}
	nodes[joiner] = jn
	if err := router.Join(jn.Info()); err != nil {
		return err
	}
	jn.StartPump(20 * time.Millisecond)
	time.Sleep(300 * time.Millisecond)
	printMembers(router)

	fmt.Println()
	shown := 0
	for _, target := range router.Targets() {
		if shown >= 5 {
			break
		}
		res, err := router.Position(target)
		if err != nil || !res.HasFix {
			continue
		}
		shown++
		fmt.Printf("%s @ %s: %v\n", target, res.Node, res.Pos)
	}
	fmt.Printf("\ncounters: handoffs=%d failed=%d failovers=%d resurrected=%d rebalanced=%d stale_served=%d\n",
		hub.ClusterHandoffs.Value(), hub.ClusterHandoffFailed.Value(),
		hub.ClusterFailovers.Value(), hub.ClusterResurrected.Value(),
		hub.ClusterRebalanced.Value(), hub.ClusterStaleServed.Value())
	return nil
}

// printMembers renders the router's membership table.
func printMembers(router *cluster.Router) {
	fmt.Println("members:")
	for _, m := range router.Members() {
		state := "up"
		if m.Dead {
			state = "dead"
		} else if m.Down {
			state = "down"
		}
		fmt.Printf("  %-4s %-21s %-4s %3d sessions\n", m.ID, m.Addr, state, m.Sessions)
	}
}

// sessionsOf returns the router's session count for one node.
func sessionsOf(router *cluster.Router, id string) int {
	for _, m := range router.Members() {
		if m.ID == id {
			return m.Sessions
		}
	}
	return -1
}

// clusterSettledOff reports whether no route points at the given node
// and no handoff is in flight.
func clusterSettledOff(router *cluster.Router, dead string) bool {
	if router.InFlight() != 0 {
		return false
	}
	for _, target := range router.Targets() {
		node, inFlight, ok := router.NodeOf(target)
		if !ok || inFlight || node == dead {
			return false
		}
	}
	return true
}
