package runtime

import (
	"context"
	"testing"
	"time"

	"perpos/internal/chaos"
	"perpos/internal/core"
	"perpos/internal/gps"
	"perpos/internal/health"
	"perpos/internal/obs"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

// failingParserConfig is a supervised, observed GPS session whose
// receiver loops forever and whose parser fails on every call. The
// supervisor's own sweep period and the breaker's probe interval are an
// hour, so the test drives every breaker transition with Sweep and no
// probe slips past the gate.
func failingParserConfig(t *testing.T, hub *obs.Metrics) SessionConfig {
	t.Helper()
	cfg := gpsSessionConfig(t)
	cfg.Overrides = func(sessionID string) []core.InstantiateOption {
		seed := seedFrom(sessionID)
		tr := trace.OutdoorTrack(testOrigin, seed, 2, 100, 1.4, time.Second)
		return []core.InstantiateOption{
			core.WithComponentOverride("gps", func(cid string) core.Component {
				return gps.NewReceiver(cid, tr, gps.Config{Seed: seed, Loop: true})
			}),
			core.WithComponentOverride("parser", func(cid string) core.Component {
				return chaos.WrapComponent(gps.NewParser(cid), chaos.WithErrorEvery(1))
			}),
		}
	}
	cfg.Health = &health.Policy{MaxConsecutiveErrors: 3, ProbeInterval: time.Hour, Sweep: time.Hour}
	cfg.Observability = hub
	return cfg
}

// TestEngineParityBreakers: a failing component is detected, gated and
// reported the same way whichever engine drives its session — the
// breaker trips, the hub counts its errors and gate drops, and the
// provider turns temporarily unavailable.
func TestEngineParityBreakers(t *testing.T) {
	for _, row := range []struct {
		name string
		// start launches the engine (nil: the test steps the session).
		start func(context.Context, *Session) error
	}{
		{name: "StepN"},
		{name: "Start", start: func(ctx context.Context, s *Session) error {
			return s.Start(ctx, core.WithSourceInterval(time.Millisecond))
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			hub := obs.New()
			m, err := NewManager(failingParserConfig(t, hub))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			s, err := m.GetOrCreate("target-parity")
			if err != nil {
				t.Fatal(err)
			}
			// drive advances the session until cond holds.
			drive := func(what string, cond func() bool) {
				if row.start != nil {
					waitFor(t, 10*time.Second, what, cond)
					return
				}
				for i := 0; !cond(); i++ {
					if i == 1000 {
						t.Fatalf("%s: not reached in %d steps", what, i)
					}
					// Every step fails in the parser; the error is what
					// the breaker must see, so it is not checked here.
					_, _ = s.StepN(1)
				}
			}
			if row.start != nil {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if err := row.start(ctx, s); err != nil {
					t.Fatal(err)
				}
				defer s.Stop()
			}

			mon := s.Monitor()
			drive("an error streak", func() bool {
				h, _ := mon.Health("parser")
				return h.ConsecutiveErrors >= 3
			})
			s.Supervisor().Sweep(time.Now())
			h, _ := mon.Health("parser")
			if h.Trips != 1 || h.State != health.StateDown {
				t.Fatalf("parser trips=%d state=%v, want 1 and down", h.Trips, h.State)
			}
			if got := s.Provider().Availability(); got != positioning.TemporarilyUnavailable {
				t.Errorf("provider availability = %v, want TEMPORARILY_UNAVAILABLE", got)
			}

			nm := hub.Node("parser")
			drive("a gate drop", func() bool { return nm.Drops.Value() > 0 })
			if got := nm.Errors.Value(); got < 3 {
				t.Errorf("hub parser errors = %d, want >= 3", got)
			}
		})
	}
}
