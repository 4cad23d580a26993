package runtime

import (
	"context"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perpos/internal/building"
	"perpos/internal/catalog"
	"perpos/internal/chaos"
	"perpos/internal/checkpoint"
	"perpos/internal/core"
	"perpos/internal/filter"
	"perpos/internal/gps"
	"perpos/internal/health"
	"perpos/internal/obs"
	"perpos/internal/positioning"
	"perpos/internal/trace"
	"perpos/internal/wifi"
)

// BenchmarkRuntimeSessions measures multi-tenant session throughput:
// N concurrent targets, each with its own pipeline instance from ONE
// shared blueprint, each paced like a live sensor (one source step per
// pace interval). The reported samples/s is the aggregate position
// delivery rate across all sessions over the measurement window — on
// an unsaturated machine it scales linearly with the session count,
// so the per-session runtime overhead (source goroutines, layer taps,
// provider delivery) is what bounds the curve.
//
// Paced, not free-running: positioning workloads are c10k-shaped (many
// mostly-idle targets), so the interesting quantity is how many live
// sessions one process sustains, not how fast one session can spin.
func BenchmarkRuntimeSessions(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("sessions_%d", n), func(b *testing.B) {
			benchSessions(b, n, gpsSessionConfig(b), 0, nil)
		})
	}
}

// BenchmarkRuntimeSessionsSupervised is the same workload with
// per-session health supervision enabled: the graph tap feeding the
// monitor is on every delivery path, so the delta against
// BenchmarkRuntimeSessions is the health-tracking overhead (budget:
// ≤5%).
func BenchmarkRuntimeSessionsSupervised(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("sessions_%d", n), func(b *testing.B) {
			cfg := gpsSessionConfig(b)
			cfg.Health = &health.Policy{
				MaxConsecutiveErrors: 3,
				Deadlines:            map[string]time.Duration{"gps": time.Second},
			}
			benchSessions(b, n, cfg, 0, nil)
		})
	}
}

// BenchmarkRuntimeSessionsCheckpointed is the supervised workload with
// durable checkpointing on top: every session serializes its full
// component state to the journal every 5 paced steps (~100ms cadence,
// matching a production ticker). The delta against
// BenchmarkRuntimeSessionsSupervised is the durability overhead
// (budget: ≤5%) — dominated by the state marshal, since the journal
// append is an unsynced sequential write.
func BenchmarkRuntimeSessionsCheckpointed(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("sessions_%d", n), func(b *testing.B) {
			cfg := gpsSessionConfig(b)
			cfg.Health = &health.Policy{
				MaxConsecutiveErrors: 3,
				Deadlines:            map[string]time.Duration{"gps": time.Second},
			}
			store, err := checkpoint.Open(b.TempDir(), checkpoint.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			cfg.Checkpoints = store
			benchSessions(b, n, cfg, 5, nil)
		})
	}
}

// BenchmarkRuntimeSessionsObserved is the checkpointed workload with
// the full observability hub wired in: emission taps, tree-depth
// observation, lifecycle gauges and checkpoint accounting all active.
// The delta against BenchmarkRuntimeSessionsCheckpointed is the
// instrumentation overhead (budget: ≤3%) — the hot path adds only a
// handful of atomic operations per sample.
func BenchmarkRuntimeSessionsObserved(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("sessions_%d", n), func(b *testing.B) {
			cfg := gpsSessionConfig(b)
			cfg.Health = &health.Policy{
				MaxConsecutiveErrors: 3,
				Deadlines:            map[string]time.Duration{"gps": time.Second},
			}
			hub := obs.New()
			cfg.Observability = hub
			store, err := checkpoint.Open(b.TempDir(), checkpoint.Options{OnAppend: hub.CheckpointAppend})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			cfg.Checkpoints = store
			benchSessions(b, n, cfg, 5, nil)
		})
	}
}

// BenchmarkRuntimeSessionsRuled is the observed workload with the full
// standard rule set evaluated on every supervisor sweep: the rules tap
// runs on every emission path and the engine re-evaluates all three
// case-study rules each sweep, but no rule ever fires (the plain GPS
// blueprint carries no HDOP feature and the simulated target never
// stops). The delta against BenchmarkRuntimeSessionsObserved is the
// cost of *having* self-adaptation armed (budget: ≤2%) — the engine's
// hot path is one lock-free probe store per attribute-bearing sample
// plus an O(rules) sweep off the hot path.
func BenchmarkRuntimeSessionsRuled(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("sessions_%d", n), func(b *testing.B) {
			cfg := gpsSessionConfig(b)
			cfg.Health = &health.Policy{
				MaxConsecutiveErrors: 3,
				Deadlines:            map[string]time.Duration{"gps": time.Second},
			}
			hub := obs.New()
			cfg.Observability = hub
			store, err := checkpoint.Open(b.TempDir(), checkpoint.Options{OnAppend: hub.CheckpointAppend})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			cfg.Checkpoints = store
			cfg.Rules = catalog.StandardRules()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// benchSessions drives Step() directly instead of Start(), so
			// the sweep goroutine the engine piggybacks on needs an
			// explicit start; Manager.Close stops it.
			benchSessions(b, n, cfg, 5, func(s *Session) { s.Supervisor().Start(ctx) })
		})
	}
}

// benchSessions drives n paced sessions; ckptEverySteps > 0 durably
// checkpoints each session on that step cadence. setup, when non-nil,
// runs once per created session before the drive loop starts.
func benchSessions(b *testing.B, n int, cfg SessionConfig, ckptEverySteps int, setup func(*Session)) {
	const (
		pace   = 20 * time.Millisecond
		window = 300 * time.Millisecond
	)
	var delivered atomic.Int64

	for iter := 0; iter < b.N; iter++ {
		m, err := NewManager(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sessions := make([]*Session, n)
		for i := range sessions {
			s, err := m.GetOrCreate(fmt.Sprintf("target-%04d", i))
			if err != nil {
				b.Fatal(err)
			}
			s.Provider().Subscribe(func(positioning.Position) { delivered.Add(1) })
			if setup != nil {
				setup(s)
			}
			sessions[i] = s
		}

		deadline := time.Now().Add(window)
		var wg sync.WaitGroup
		for _, s := range sessions {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				for step := 1; time.Now().Before(deadline); step++ {
					more, err := s.Step()
					if err != nil {
						b.Error(err)
						return
					}
					if !more {
						return
					}
					if ckptEverySteps > 0 && step%ckptEverySteps == 0 {
						if _, err := s.Checkpoint(); err != nil {
							b.Error(err)
							return
						}
					}
					time.Sleep(pace)
				}
			}()
		}
		wg.Wait()
		m.Close()
	}

	perWindow := float64(delivered.Load()) / float64(b.N)
	b.ReportMetric(perWindow/window.Seconds(), "samples/s")
	reportPaced(b, perWindow/float64(n), window, pace)
}

// reportPaced reports a paced row's positions per session and window
// beside the ceiling its pace and window imply (one source step per
// pace interval), so a gate can hold their ratio on any machine: the
// pacer, not the hardware, sets the ceiling.
func reportPaced(b *testing.B, perSession float64, window, pace time.Duration) {
	b.ReportMetric(perSession, "samples/session")
	b.ReportMetric(float64(window/pace), "ceiling/session")
}

// BenchmarkRuntimeSaturated measures the throughput CEILING: N
// sessions driven flat-out with no pacer — every worker calls StepN in
// a tight loop against an endlessly looping GPS source. Where the
// paced benchmarks above hold their pace on any machine, this one
// answers "how fast does the middleware run when the hardware is the
// only limit", and its allocs/op is the per-source-step allocation
// bill of the whole hot path (emission, span bookkeeping, channel
// history, data-tree build, provider delivery). These sessions are
// bare: no metrics hub, no supervision.
func BenchmarkRuntimeSaturated(b *testing.B) {
	benchSaturatedFamily(b, saturatedSessionConfig)
}

// BenchmarkRuntimeSaturatedShipped is the saturated workload as
// gps-saturated ships it: the metrics hub and supervision watch every
// emission. No supervisor sweeps run. Its allocs/op equals the bare
// row's: watching allocates nothing per emission.
func BenchmarkRuntimeSaturatedShipped(b *testing.B) {
	benchSaturatedFamily(b, shippedSessionConfig)
}

// BenchmarkRuntimeSaturatedPaired runs the bare, shipped and ruled
// (shipped plus the standard rule set, whose tap sees every emission)
// configurations side by side: 100 sessions of each, stepped by one
// worker pool in alternating phases of up to 8 steps per session,
// rotating which configuration goes first. Each phase is timed, so
// shipped-ns/step over bare-ns/step (the cost of watching) and
// ruled-ns/step over shipped-ns/step (the cost of the rules tap) divide
// measurements taken under the same host conditions, and hold on any
// machine. No supervisor sweeps run in any of the three. An op is one
// source step of each configuration.
func BenchmarkRuntimeSaturatedPaired(b *testing.B) {
	const n, phase = 100, 8
	ruled := shippedSessionConfig(b)
	ruled.Rules = catalog.StandardRules()
	configs := []struct {
		name string
		cfg  SessionConfig
	}{
		{"bare", saturatedSessionConfig(b)},
		{"shipped", shippedSessionConfig(b)},
		{"ruled", ruled},
	}
	fleets := make([][]*Session, len(configs))
	for c, conf := range configs {
		m, err := NewManager(conf.cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		for i := 0; i < n; i++ {
			s, err := m.GetOrCreate(fmt.Sprintf("target-%04d", i))
			if err != nil {
				b.Fatal(err)
			}
			s.Provider().Subscribe(func(positioning.Position) {})
			fleets[c] = append(fleets[c], s)
		}
	}

	elapsed := make([]time.Duration, len(configs))
	b.ReportAllocs()
	b.ResetTimer()
	for done, round := 0, 0; done < b.N; round++ {
		steps := min(n*phase, b.N-done)
		for j := range configs {
			c := (round + j) % len(configs)
			start := time.Now()
			stepFleet(b, fleets[c], steps, phase)
			elapsed[c] += time.Since(start)
		}
		done += steps
	}
	b.StopTimer()
	for c, conf := range configs {
		b.ReportMetric(float64(elapsed[c].Nanoseconds())/float64(b.N), conf.name+"-ns/step")
	}
}

func benchSaturatedFamily(b *testing.B, config func(testing.TB) SessionConfig) {
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("sessions_%d", n), func(b *testing.B) {
			benchSaturated(b, n, config(b))
		})
	}
}

// saturatedSessionConfig is gpsSessionConfig with an endless (looping)
// receiver and no acquisition delay, so flat-out drivers never run the
// source dry and every epoch emits a full sentence group. The receiver
// is seeded from the session ID, so two sessions created under the same
// ID replay the same sentence stream.
func saturatedSessionConfig(tb testing.TB) SessionConfig {
	tb.Helper()
	bp, err := catalog.GPSBlueprint()
	if err != nil {
		tb.Fatal(err)
	}
	return SessionConfig{
		Blueprint: bp,
		Overrides: func(sessionID string) []core.InstantiateOption {
			seed := seedFrom(sessionID)
			tr := trace.OutdoorTrack(testOrigin, seed, 4, 200, 1.4, time.Second)
			return []core.InstantiateOption{
				core.WithComponentOverride("gps", func(cid string) core.Component {
					return gps.NewReceiver(cid, tr, gps.Config{
						Seed:      seed,
						ColdStart: time.Nanosecond,
						Loop:      true,
					})
				}),
			}
		},
		Provider: positioning.ProviderInfo{Technology: "gps", TypicalAccuracy: 5},
		History:  64,
	}
}

// shippedSessionConfig is saturatedSessionConfig with what
// gps-saturated ships: a metrics hub and its supervision policy.
func shippedSessionConfig(tb testing.TB) SessionConfig {
	cfg := saturatedSessionConfig(tb)
	cfg.Observability = obs.New()
	cfg.Health = &health.Policy{
		MaxConsecutiveErrors: 2,
		ProbeInterval:        10 * time.Millisecond,
		Restart:              core.RestartPolicy{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	}
	return cfg
}

// benchSaturated splits b.N source steps across a GOMAXPROCS-sized
// worker pool, each worker driving a contiguous shard of sessions in
// StepN batches. The op of allocs/op and ns/op is one source step
// (≈1 delivered position).
//
// Two scaling fixes over the goroutine-per-session version: (1) 1000
// runnable goroutines on a handful of cores spent their time in the
// scheduler, not the pipeline — a worker per core walking its shard
// keeps every core on middleware code at any width; (2) the single
// shared delivery counter was the hottest contended cache line at
// GOMAXPROCS > 1 — counters are now per-session, padded a cache line
// apart, written plainly by the one worker driving that session
// (delivery runs synchronously on the stepping goroutine) and summed
// after the workers join.
func benchSaturated(b *testing.B, n int, cfg SessionConfig) {
	const batch = 64
	// counterStride spaces the per-session counters one 64-byte cache
	// line apart so neighbouring sessions never false-share.
	const counterStride = 8
	m, err := NewManager(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()

	counts := make([]int64, n*counterStride)
	sessions := make([]*Session, n)
	for i := range sessions {
		s, err := m.GetOrCreate(fmt.Sprintf("target-%04d", i))
		if err != nil {
			b.Fatal(err)
		}
		slot := &counts[i*counterStride]
		s.Provider().Subscribe(func(positioning.Position) { *slot++ })
		sessions[i] = s
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	stepFleet(b, sessions, b.N, batch)
	elapsed := time.Since(start)
	b.StopTimer()
	var delivered int64
	for i := 0; i < n; i++ {
		delivered += counts[i*counterStride]
	}
	if sec := elapsed.Seconds(); sec > 0 {
		b.ReportMetric(float64(delivered)/sec, "samples/s")
	}
}

// stepFleet takes steps source steps across the fleet, spread evenly
// over its sessions, in StepN batches of at most batch: a
// GOMAXPROCS-sized worker pool, each worker driving a contiguous
// shard of sessions.
func stepFleet(b *testing.B, fleet []*Session, steps, batch int) {
	n := len(fleet)
	per, extra := steps/n, steps%n
	workers := min(stdruntime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				left := per
				if i < extra {
					left++
				}
				for left > 0 {
					k := min(left, batch)
					if _, err := fleet[i].StepN(k); err != nil {
						b.Error(err)
						return
					}
					left -= k
				}
			}
		}(w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
}

// BenchmarkDegradedFusionSession measures steady-state degraded-mode
// throughput: a supervised fusion session whose WiFi branch is down
// (breaker open, app rerouted to the GPS branch, runner retrying the
// dead source with backoff) delivering positions over a fixed window,
// its sources paced 1 ms apart.
func BenchmarkDegradedFusionSession(b *testing.B) {
	const (
		window = 300 * time.Millisecond
		pace   = time.Millisecond
	)
	bld := building.Evaluation()
	n := wifi.DefaultDeployment(bld)
	db := wifi.Survey(n, 0, wifi.SurveyConfig{Seed: 1, GridStep: 4})
	bp, err := catalog.FusionBlueprint(catalog.Deps{Building: bld, Database: db},
		filter.Config{Particles: 100, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	tr := trace.CorridorWalk(bld, 11, 60, time.Second)

	var delivered, inWindow atomic.Int64
	for iter := 0; iter < b.N; iter++ {
		var wifiChaos *chaos.Source
		m, err := NewManager(SessionConfig{
			Blueprint: bp,
			Overrides: func(string) []core.InstantiateOption {
				return []core.InstantiateOption{
					core.WithComponentOverride("gps", func(id string) core.Component {
						return gps.NewReceiver(id, tr, gps.Config{Seed: 21, ColdStart: 0})
					}),
					core.WithComponentOverride("wifi", func(id string) core.Component {
						wifiChaos = chaos.WrapSource(wifi.NewSensor(id, n, tr, time.Second, 31))
						return wifiChaos
					}),
				}
			},
			Provider: positioning.ProviderInfo{Technology: "fusion"},
			History:  16,
			Health: &health.Policy{
				MaxConsecutiveErrors: 2,
				ProbeInterval:        10 * time.Millisecond,
				Sweep:                5 * time.Millisecond,
				Restart:              core.RestartPolicy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
			},
			Reroutes: catalog.FusionDegradation(),
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := m.GetOrCreate("bench")
		if err != nil {
			b.Fatal(err)
		}
		s.Provider().Subscribe(func(positioning.Position) { delivered.Add(1) })
		wifiChaos.Kill(nil)
		ctx, cancel := context.WithCancel(context.Background())
		if err := s.Start(ctx, core.WithSourceInterval(pace)); err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(window)
		for time.Now().Before(deadline) {
			if s.Supervisor().Degraded() {
				break
			}
			time.Sleep(time.Millisecond)
		}
		start := delivered.Load()
		time.Sleep(window)
		inWindow.Add(delivered.Load() - start)
		_ = s.Stop() // the injected outage leaves expected errors behind
		cancel()
		m.Close()
	}
	perWindow := float64(inWindow.Load()) / float64(b.N)
	b.ReportMetric(perWindow/window.Seconds(), "samples/s")
	reportPaced(b, perWindow, window, pace)
}
