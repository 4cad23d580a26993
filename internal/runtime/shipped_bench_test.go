package runtime_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"perpos/internal/chaos"
	"perpos/internal/checkpoint"
	"perpos/internal/core"
	"perpos/internal/health"
	"perpos/internal/obs"
	"perpos/internal/positioning"
	"perpos/internal/rules"
	"perpos/internal/runtime"
)

// shippedRules reifies rules-fusion.json's rules block.
func shippedRules(tb testing.TB) []rules.Rule {
	tb.Helper()
	loader, p := newFusionWorld().shipped(tb, "rules-fusion.json")
	rs, err := loader.Rules(p.Rules)
	if err != nil {
		tb.Fatal(err)
	}
	return rs
}

// BenchmarkRuntimeSessionsRuled is the observed workload with
// rules-fusion.json's rule set evaluated on every supervisor sweep: the
// rules tap runs on every emission path and the engine re-evaluates all
// three case-study rules each sweep, but no rule ever fires (the plain GPS
// blueprint carries no HDOP feature and the simulated target never
// stops). The delta against BenchmarkRuntimeSessionsObserved is the
// cost of *having* self-adaptation armed (budget: ≤2%) — the engine's
// hot path is one lock-free probe store per attribute-bearing sample
// plus an O(rules) sweep off the hot path.
func BenchmarkRuntimeSessionsRuled(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("sessions_%d", n), func(b *testing.B) {
			cfg := runtime.GPSSessionConfig(b)
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
			cfg.Rules = shippedRules(b)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// benchSessions drives Step() directly instead of Start(), so
			// the sweep goroutine the engine piggybacks on needs an
			// explicit start; Manager.Close stops it.
			runtime.BenchSessions(b, n, cfg, 5, func(s *runtime.Session) { s.Supervisor().Start(ctx) })
		})
	}
}

// BenchmarkRuntimeSaturatedPaired runs the bare, shipped and ruled
// (shipped plus rules-fusion.json's rule set, whose tap sees every
// emission)
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
	ruled := runtime.ShippedSessionConfig(b)
	ruled.Rules = shippedRules(b)
	configs := []struct {
		name string
		cfg  runtime.SessionConfig
	}{
		{"bare", runtime.SaturatedSessionConfig(b)},
		{"shipped", runtime.ShippedSessionConfig(b)},
		{"ruled", ruled},
	}
	fleets := make([][]*runtime.Session, len(configs))
	for c, conf := range configs {
		m, err := runtime.NewManager(conf.cfg)
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
			runtime.StepFleet(b, fleets[c], steps, phase)
			elapsed[c] += time.Since(start)
		}
		done += steps
	}
	b.StopTimer()
	for c, conf := range configs {
		b.ReportMetric(float64(elapsed[c].Nanoseconds())/float64(b.N), conf.name+"-ns/step")
	}
}

// BenchmarkDegradedFusionSession measures steady-state degraded-mode
// throughput: a session of rules-fusion.json, without its rules, whose
// WiFi branch is down (breaker open, app rerouted to the GPS branch,
// the graph retrying the dead source with backoff) delivering positions
// over a fixed window, its sources paced 1 ms apart.
func BenchmarkDegradedFusionSession(b *testing.B) {
	const (
		window = 300 * time.Millisecond
		pace   = time.Millisecond
	)
	w := newFusionWorld()
	var delivered, inWindow atomic.Int64
	for iter := 0; iter < b.N; iter++ {
		var wifiChaos *chaos.Source
		m := w.manager(b, noRules, w.base(w.receiver(0), &wifiChaos))
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
	runtime.ReportPaced(b, perWindow, window, pace)
}
