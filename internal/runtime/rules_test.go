package runtime_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perpos/internal/catalog"
	"perpos/internal/chaos"
	"perpos/internal/core"
	"perpos/internal/energy"
	"perpos/internal/gps"
	"perpos/internal/health"
	"perpos/internal/positioning"
	"perpos/internal/rules"
	"perpos/internal/runtime"
	"perpos/internal/trace"
)

// hdopModes drive the chaos HDOP corruptor through the phases of the
// §3.2 lifecycle scenario.
// The indoor walk's true HDOP is 5–15, so even the healthy phases pin
// the value: "clean" is the rewritten 1.0, not the raw signal.
const (
	hdopDegraded = 1 // every fix reports HDOP 9.9
	hdopNoisy    = 2 // alternate 9.9 / 3.5 inside the hysteresis band
	hdopClean    = 3 // every fix reports HDOP 1.0
)

// hdopCorruptor returns a chaos corruption function that rewrites the
// HDOP of every GGA/GSA sentence according to the current mode. The
// noisy mode flips parity on each GGA so that the GGA and GSA of one
// epoch always agree — the rules probe must see a coherent, if
// oscillating, signal.
func hdopCorruptor(mode *atomic.Int32) func(core.Sample) core.Sample {
	var flips atomic.Uint64
	return func(s core.Sample) core.Sample {
		raw, ok := s.Payload.(string)
		if !ok {
			return s
		}
		switch mode.Load() {
		case hdopDegraded:
			s.Payload = gps.RewriteHDOP(raw, 9.9)
		case hdopNoisy:
			if strings.Contains(raw, "GGA") {
				flips.Add(1)
			}
			v := 9.9
			if flips.Load()%2 == 0 {
				v = 3.5
			}
			s.Payload = gps.RewriteHDOP(raw, v)
		case hdopClean:
			s.Payload = gps.RewriteHDOP(raw, 1.0)
		}
		return s
	}
}

// rulesManager builds a manager for rules-fusion.json with only the
// named rule armed: the GPS receiver is chaos-wrapped so the test
// script controls its HDOP, and the WiFi sensor is chaos-wrapped and
// reported through wifiChaos (when non-nil).
func rulesManager(t *testing.T, rule string, mode *atomic.Int32, wifiChaos **chaos.Source) *runtime.Manager {
	t.Helper()
	w := newFusionWorld()
	corrupt := hdopCorruptor(mode)
	receiver := func(id string) core.Component {
		return chaos.WrapSource(
			gps.NewReceiver(id, w.tr, gps.Config{Seed: 21, ColdStart: time.Second}),
			chaos.WithCorrupt(1, corrupt),
		)
	}
	return w.manager(t, onlyRule(t, rule), w.base(receiver, wifiChaos))
}

// graphHasEdge reports whether the session graph currently carries e.
func graphHasEdge(g *core.Graph, e core.Edge) bool {
	for _, have := range g.Edges() {
		if have == e {
			return true
		}
	}
	return false
}

// ruleStatus finds one rule's snapshot by name.
func ruleStatus(t *testing.T, eng *rules.Engine, name string) rules.RuleStatus {
	t.Helper()
	for _, st := range eng.Status() {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("rule %q not in engine status", name)
	return rules.RuleStatus{}
}

// TestRulesHDOPFilterLifecycle is the §3.2 case study end to end, on
// rules-fusion.json with its accuracy-filter rule alone: GPS accuracy
// degrades, the rule inserts an HDOP filter into the live pipeline; a noisy boundary signal oscillating inside the
// hysteresis band causes no churn; recovery removes the filter again.
func TestRulesHDOPFilterLifecycle(t *testing.T) {
	var mode atomic.Int32
	mode.Store(hdopClean)
	m := rulesManager(t, "accuracy-filter", &mode, nil)
	defer m.Close()
	s, err := m.GetOrCreate("hdop")
	if err != nil {
		t.Fatal(err)
	}
	eng := s.Rules()
	if eng == nil {
		t.Fatal("rule-bearing session has no engine")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx, core.WithSourceInterval(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	inserted := core.Edge{From: "parser", To: "hdop-filter", Port: 0}
	original := core.Edge{From: "parser", To: "interpreter", Port: 0}

	// Phase 1: clean signal. Give the engine time to see good HDOP and
	// verify it leaves the graph alone.
	runtime.WaitFor(t, 5*time.Second, "clean hdop observations", func() bool {
		_, ok := s.Graph().Node("interpreter")
		return ok && !eng.Engaged("accuracy-filter")
	})
	time.Sleep(150 * time.Millisecond) // longer than EngageAfter: a clean signal must not engage
	if eng.Engaged("accuracy-filter") {
		t.Fatal("rule engaged on a clean signal")
	}

	// Phase 2: accuracy degrades. The rule must insert the filter after
	// the engage dwell and splice the pipeline around it.
	mode.Store(hdopDegraded)
	runtime.WaitFor(t, 5*time.Second, "accuracy rule to engage", func() bool {
		return eng.Engaged("accuracy-filter")
	})
	if _, ok := s.Graph().Node("hdop-filter"); !ok {
		t.Fatal("engaged rule left no hdop-filter node in the graph")
	}
	if !graphHasEdge(s.Graph(), inserted) || graphHasEdge(s.Graph(), original) {
		t.Fatalf("graph not spliced around the filter: %v", s.Graph().Edges())
	}

	// Phase 3: the signal turns noisy, oscillating between 9.9 and 3.5
	// — both above the 2.5 clear threshold. Hysteresis must hold the
	// engagement: zero extra transitions for the whole phase.
	mode.Store(hdopNoisy)
	time.Sleep(1200 * time.Millisecond)
	st := ruleStatus(t, eng, "accuracy-filter")
	if !st.Engaged || st.Engagements != 1 || st.Disengagements != 0 {
		t.Fatalf("noisy boundary signal churned the rule: %+v", st)
	}

	// Phase 4: accuracy recovers. The clear dwell elapses, the filter
	// is removed, and the original edge is restored.
	mode.Store(hdopClean)
	runtime.WaitFor(t, 5*time.Second, "accuracy rule to disengage", func() bool {
		return !eng.Engaged("accuracy-filter")
	})
	runtime.WaitFor(t, time.Second, "graph restored", func() bool {
		_, ok := s.Graph().Node("hdop-filter")
		return !ok && graphHasEdge(s.Graph(), original)
	})
	st = ruleStatus(t, eng, "accuracy-filter")
	if st.Engagements != 1 || st.Disengagements != 1 {
		t.Fatalf("lifecycle transitions = %+v, want exactly one engage and one disengage", st)
	}

	_ = s.Stop()
}

// TestRulesGuardRollback proves the probation guard end to end: a rule
// whose action inserts a component that immediately starts failing must
// be rolled back within probation and quarantined, leaving the graph as
// it was.
func TestRulesGuardRollback(t *testing.T) {
	bp, err := catalog.GPSBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.OutdoorTrack(runtime.TestOrigin, 7, 2, 100, 1.4, time.Second)

	bad := rules.Rule{
		Name: "bad-insert",
		// The parser's error count is observable from its first output
		// on, so the rule engages on the sweep after it — the test
		// exercises the guard, not the dwell.
		When: rules.Condition{Signal: "errors:parser", Op: rules.OpGE, Value: 0},
		Action: &rules.InsertAction{
			ID: "bad-filter",
			Build: func(id string) core.Component {
				return &core.FuncComponent{
					CompID: id,
					CompSpec: core.Spec{
						Name:   "AlwaysFails",
						Inputs: []core.PortSpec{{Name: "in", Accepts: []core.Kind{gps.KindSentence}}},
						Output: core.OutputSpec{Kind: gps.KindSentence},
					},
					Fn: func(int, core.Sample, core.Emit) error {
						return errors.New("injected: bad adaptation")
					},
				}
			},
			From: "parser",
			To:   "interpreter",
			Port: 0,
		},
		Guard: &rules.Guard{
			Condition: rules.Condition{Signal: "errors:bad-filter", Op: rules.OpGT, Value: 0},
			Delta:     true,
			Probation: 2 * time.Second,
		},
	}

	cfg := runtime.SessionConfig{
		Blueprint: bp,
		Overrides: func(sessionID string) []core.InstantiateOption {
			return []core.InstantiateOption{
				core.WithComponentOverride("gps", func(cid string) core.Component {
					return gps.NewReceiver(cid, tr, gps.Config{Seed: 7, ColdStart: time.Second})
				}),
			}
		},
		Provider: positioning.ProviderInfo{Technology: "gps", TypicalAccuracy: 5},
		Health: &health.Policy{
			MaxConsecutiveErrors: 100, // let errors accumulate instead of tripping the breaker
			ProbeInterval:        10 * time.Millisecond,
			Sweep:                5 * time.Millisecond,
			Restart:              core.RestartPolicy{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond},
		},
		Rules: []rules.Rule{bad},
	}

	m, err := runtime.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.GetOrCreate("rollback")
	if err != nil {
		t.Fatal(err)
	}

	var evMu sync.Mutex
	var events []rules.Event
	s.Rules().OnEvent(func(ev rules.Event) {
		evMu.Lock()
		events = append(events, ev)
		evMu.Unlock()
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx, core.WithSourceInterval(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	runtime.WaitFor(t, 5*time.Second, "bad action to roll back", func() bool {
		return ruleStatus(t, s.Rules(), "bad-insert").Rollbacks >= 1
	})
	st := ruleStatus(t, s.Rules(), "bad-insert")
	if st.Engaged || !st.Quarantined {
		t.Fatalf("after rollback: %+v, want disengaged and quarantined", st)
	}
	runtime.WaitFor(t, time.Second, "graph restored after rollback", func() bool {
		_, ok := s.Graph().Node("bad-filter")
		return !ok && graphHasEdge(s.Graph(), core.Edge{From: "parser", To: "interpreter", Port: 0})
	})

	// Quarantine must hold the rule out even though its condition still
	// holds; exactly one engage/rollback cycle.
	time.Sleep(200 * time.Millisecond)
	st = ruleStatus(t, s.Rules(), "bad-insert")
	if st.Engagements != 1 || st.Rollbacks != 1 {
		t.Fatalf("quarantine did not hold: %+v", st)
	}

	evMu.Lock()
	var sawRollback, sawQuarantine bool
	for _, ev := range events {
		if ev.Rule != "bad-insert" {
			continue
		}
		switch ev.Type {
		case rules.EventRolledBack:
			sawRollback = true
		case rules.EventQuarantined:
			sawQuarantine = true
		}
	}
	evMu.Unlock()
	if !sawRollback || !sawQuarantine {
		t.Fatalf("events missing rollback/quarantine: %+v", events)
	}

	_ = s.Stop()
}

// TestChaosRulesSupervisorArbitration is the arbitration scenario the
// CI chaos job runs under -race: rules-fusion.json's provider-swap rule
// and its supervision reroutes deliberately contend for the
// particle-filter→app edge. The supervisor's reroute must always win
// while the WiFi branch is down, and the rule must re-engage on its own
// once the branch heals.
func TestChaosRulesSupervisorArbitration(t *testing.T) {
	var mode atomic.Int32
	mode.Store(hdopClean)
	var wifiChaos *chaos.Source
	m := rulesManager(t, "provider-swap", &mode, &wifiChaos)
	defer m.Close()
	s, err := m.GetOrCreate("arb")
	if err != nil {
		t.Fatal(err)
	}
	if wifiChaos == nil {
		t.Fatal("override never built the chaos-wrapped sensor")
	}
	eng := s.Rules()

	var delivered atomic.Int64
	s.Provider().Subscribe(func(positioning.Position) { delivered.Add(1) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx, core.WithSourceInterval(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	fused := core.Edge{From: "particle-filter", To: "app", Port: 0}
	swapped := core.Edge{From: "wifi-positioning", To: "app", Port: 0}

	// Phase 1: healthy and accurate — fused output, rule idle.
	runtime.WaitFor(t, 5*time.Second, "first fused positions", func() bool {
		return delivered.Load() >= 3
	})
	if eng.Engaged("provider-swap") {
		t.Fatal("swap rule engaged while accuracy is good")
	}

	// Phase 2: GPS accuracy collapses; the rule swaps the app over to
	// the WiFi fingerprint position.
	mode.Store(hdopDegraded)
	runtime.WaitFor(t, 5*time.Second, "swap rule to engage", func() bool {
		return eng.Engaged("provider-swap")
	})
	runtime.WaitFor(t, time.Second, "swap edge in place", func() bool {
		return graphHasEdge(s.Graph(), swapped) && !graphHasEdge(s.Graph(), fused)
	})

	// Phase 3: the WiFi branch dies. The supervisor claims the same
	// edge for its degradation reroute; the rule must yield — the
	// supervisor always wins — and positions must keep flowing from the
	// GPS branch.
	wifiChaos.Kill(nil)
	runtime.WaitFor(t, 5*time.Second, "supervisor to win the edge", func() bool {
		return s.Supervisor().Degraded() && !eng.Engaged("provider-swap")
	})
	runtime.WaitFor(t, 5*time.Second, "degradation route in place", func() bool {
		return graphHasEdge(s.Graph(), core.Edge{From: "interpreter", To: "app", Port: 0})
	})
	before := delivered.Load()
	runtime.WaitFor(t, 5*time.Second, "positions while degraded", func() bool {
		return delivered.Load() >= before+3
	})

	// Phase 4: the branch heals. The supervisor releases its claim and
	// the rule — whose condition still holds — re-engages by itself.
	wifiChaos.Heal()
	runtime.WaitFor(t, 10*time.Second, "rule to re-engage after heal", func() bool {
		return !s.Supervisor().Degraded() && eng.Engaged("provider-swap")
	})
	runtime.WaitFor(t, time.Second, "swap edge back", func() bool {
		return graphHasEdge(s.Graph(), swapped) && !graphHasEdge(s.Graph(), fused)
	})

	// Phase 5: accuracy recovers; the rule stands down and full fusion
	// returns.
	mode.Store(hdopClean)
	runtime.WaitFor(t, 5*time.Second, "swap rule to disengage", func() bool {
		return !eng.Engaged("provider-swap")
	})
	runtime.WaitFor(t, time.Second, "fused edge restored", func() bool {
		return graphHasEdge(s.Graph(), fused) && !graphHasEdge(s.Graph(), swapped)
	})

	_ = s.Stop()
}

// TestRulesPowerDutyCycle is the §3.2 power case study end to end,
// with rules-fusion.json's power rule armed on the plain GPS chain: a
// stationary target engages the periodic duty-cycling feature on the
// receiver; movement detaches it again.
func TestRulesPowerDutyCycle(t *testing.T) {
	bp, err := catalog.GPSBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	loader, p := newFusionWorld().shipped(t, "rules-fusion.json")
	onlyRule(t, "power-periodic")(&p)
	power, err := loader.Rules(p.Rules)
	if err != nil {
		t.Fatal(err)
	}

	// Hand-built ground truth: five simulated minutes standing still,
	// then a brisk walk. At a 5 ms source interval and 1 s epochs the
	// sim clock runs ~200x wall, so the still phase is ~1.5 s of wall
	// clock — several engage dwells long.
	t0 := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	tr := &trace.Trace{
		Name:   "still-then-walk",
		Origin: runtime.TestOrigin,
		Points: []trace.Point{
			{Time: t0, Global: runtime.TestOrigin, Speed: 0, Mode: "still"},
			{Time: t0.Add(5 * time.Minute), Global: runtime.TestOrigin, Speed: 0, Mode: "still"},
			{Time: t0.Add(5*time.Minute + time.Second), Global: runtime.TestOrigin, Speed: 1.4, Mode: "walk"},
			{Time: t0.Add(60 * time.Minute), Global: runtime.TestOrigin, Speed: 1.4, Mode: "walk"},
		},
	}

	cfg := runtime.SessionConfig{
		Blueprint: bp,
		Overrides: func(sessionID string) []core.InstantiateOption {
			return []core.InstantiateOption{
				core.WithComponentOverride("gps", func(cid string) core.Component {
					return gps.NewReceiver(cid, tr, gps.Config{Seed: 3, ColdStart: time.Second})
				}),
			}
		},
		Provider: positioning.ProviderInfo{Technology: "gps", TypicalAccuracy: 5},
		Health: &health.Policy{
			ProbeInterval: 10 * time.Millisecond,
			Sweep:         5 * time.Millisecond,
		},
		Rules: power,
	}

	m, err := runtime.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.GetOrCreate("power")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx, core.WithSourceInterval(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	hasPeriodic := func() bool {
		n, ok := s.Graph().Node("gps")
		if !ok {
			return false
		}
		_, ok = n.Feature(energy.FeaturePeriodic)
		return ok
	}

	// Stationary: the rule attaches the duty-cycling strategy.
	runtime.WaitFor(t, 5*time.Second, "power rule to engage while still", func() bool {
		return s.Rules().Engaged("power-periodic") && hasPeriodic()
	})

	// Walking: the rule detaches it again.
	runtime.WaitFor(t, 10*time.Second, "power rule to disengage while walking", func() bool {
		return !s.Rules().Engaged("power-periodic") && !hasPeriodic()
	})
	st := ruleStatus(t, s.Rules(), "power-periodic")
	if st.Engagements != 1 || st.Disengagements != 1 {
		t.Fatalf("power lifecycle = %+v, want one engage and one disengage", st)
	}

	_ = s.Stop()
}
