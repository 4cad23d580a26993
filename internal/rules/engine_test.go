package rules

import (
	"errors"
	"strings"
	"testing"
	"time"

	"perpos/internal/core"
	"perpos/internal/health"
)

// fakeAction counts Apply/Revert calls and can be told to fail either.
type fakeAction struct {
	edges     []core.Edge
	applies   int
	reverts   int
	failApply error
	failRevrt error
}

func (a *fakeAction) Describe() string   { return "fake" }
func (a *fakeAction) Edges() []core.Edge { return a.edges }
func (a *fakeAction) Apply(*core.Graph) error {
	a.applies++
	return a.failApply
}
func (a *fakeAction) Revert(*core.Graph) error {
	a.reverts++
	return a.failRevrt
}

// passAdapter runs the edit against a nil graph — fakeAction ignores it.
var passAdapter = health.Adapter(func(edit func(*core.Graph) error) error { return edit(nil) })

// fakeClaimer returns a fixed claimed-edge set.
type fakeClaimer struct{ edges []core.Edge }

func (c *fakeClaimer) ClaimedEdges(buf []core.Edge) []core.Edge {
	return append(buf, c.edges...)
}

// feed pushes an attribute observation into the engine's probes.
func feed(e *Engine, node, key string, v float64) {
	s := core.NewSample(core.KindAny, nil, time.Time{}).WithAttr(key, v)
	e.Tap(node, s)
}

func newTestEngine(t *testing.T, rs []Rule, cfg Config) *Engine {
	t.Helper()
	cfg.Rules = rs
	if cfg.Adapter == nil {
		cfg.Adapter = passAdapter
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestEngineHysteresis(t *testing.T) {
	act := &fakeAction{}
	rs := []Rule{{
		Name:           "r",
		When:           Condition{Signal: "attr:hdop", Op: OpGT, Value: 4},
		ClearWhen:      &Condition{Signal: "attr:hdop", Op: OpLT, Value: 2.5},
		EngageAfter:    100 * time.Millisecond,
		DisengageAfter: 100 * time.Millisecond,
		Cooldown:       time.Millisecond,
		Action:         act,
	}}
	e := newTestEngine(t, rs, Config{})
	if !e.NeedsTap() {
		t.Fatal("attr rule must need a tap")
	}
	now := time.Unix(0, 0)

	// Unknown signal: no engagement no matter how long we sweep.
	for i := 0; i < 100; i++ {
		now = now.Add(10 * time.Millisecond)
		e.Sweep(now)
	}
	if act.applies != 0 {
		t.Fatalf("engaged on unknown signal: %d applies", act.applies)
	}

	// Degraded signal: engages only after the dwell.
	feed(e, "parser", "hdop", 9.9)
	now = now.Add(time.Millisecond)
	e.Sweep(now) // anchors condSince
	if e.Engaged("r") {
		t.Fatal("engaged before dwell")
	}
	now = now.Add(100 * time.Millisecond)
	e.Sweep(now)
	if !e.Engaged("r") || act.applies != 1 {
		t.Fatalf("want engaged after dwell, applies=%d", act.applies)
	}

	// Signal inside the hysteresis band (below engage, above clear):
	// stays engaged forever.
	feed(e, "parser", "hdop", 3.5)
	for i := 0; i < 100; i++ {
		now = now.Add(10 * time.Millisecond)
		e.Sweep(now)
	}
	if !e.Engaged("r") {
		t.Fatal("disengaged inside the hysteresis band")
	}

	// Recovered below the clear threshold: disengages after its dwell.
	feed(e, "parser", "hdop", 1.0)
	now = now.Add(time.Millisecond)
	e.Sweep(now)
	if !e.Engaged("r") {
		t.Fatal("disengaged before clear dwell")
	}
	now = now.Add(100 * time.Millisecond)
	e.Sweep(now)
	if e.Engaged("r") || act.reverts != 1 {
		t.Fatalf("want disengaged after clear dwell, reverts=%d", act.reverts)
	}

	st := e.Status()[0]
	if st.Engagements != 1 || st.Disengagements != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestEngineDefaultClearRequiresSignal(t *testing.T) {
	// With no explicit ClearWhen the clear condition is ¬When — but an
	// errors: signal for a node the monitor has never seen is unknown,
	// so an engaged rule must NOT disengage just because the signal
	// disappeared.
	act := &fakeAction{}
	rs := []Rule{{
		Name:   "r",
		When:   Condition{Signal: "attr:x", Op: OpGT, Value: 1},
		Action: act,
	}}
	e := newTestEngine(t, rs, Config{})
	now := time.Unix(0, 0)
	feed(e, "n", "x", 5)
	e.Sweep(now)
	now = now.Add(time.Millisecond)
	e.Sweep(now) // EngageAfter 0 → engages on the second sweep
	if !e.Engaged("r") {
		t.Fatal("not engaged")
	}
	// The probe keeps its last value (5 > 1), so ¬When is false: the
	// rule stays engaged across any number of sweeps.
	for i := 0; i < 50; i++ {
		now = now.Add(100 * time.Millisecond)
		e.Sweep(now)
	}
	if !e.Engaged("r") {
		t.Fatal("disengaged while When still held")
	}
	// Value drops: default clear holds, disengage after the dwell.
	feed(e, "n", "x", 0)
	now = now.Add(time.Millisecond)
	e.Sweep(now)
	now = now.Add(DefaultDisengageAfter)
	e.Sweep(now)
	if e.Engaged("r") {
		t.Fatal("still engaged after default clear dwell")
	}
}

func TestEngineCooldown(t *testing.T) {
	act := &fakeAction{}
	rs := []Rule{{
		Name:           "r",
		When:           Condition{Signal: "attr:x", Op: OpGT, Value: 1},
		EngageAfter:    time.Millisecond,
		DisengageAfter: time.Millisecond,
		Cooldown:       5 * time.Second,
		Action:         act,
	}}
	e := newTestEngine(t, rs, Config{})
	now := time.Unix(0, 0)
	feed(e, "n", "x", 5)
	e.Sweep(now)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	if !e.Engaged("r") {
		t.Fatal("not engaged")
	}
	feed(e, "n", "x", 0)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	if e.Engaged("r") {
		t.Fatal("not disengaged")
	}
	// Condition returns immediately — but cooldown blocks re-engagement.
	feed(e, "n", "x", 5)
	for i := 0; i < 10; i++ {
		now = now.Add(10 * time.Millisecond)
		e.Sweep(now)
	}
	if e.Engaged("r") {
		t.Fatal("re-engaged inside cooldown")
	}
	now = now.Add(5 * time.Second)
	e.Sweep(now)
	if !e.Engaged("r") {
		t.Fatal("did not re-engage after cooldown")
	}
}

func TestEngineFlapQuarantine(t *testing.T) {
	act := &fakeAction{}
	rs := []Rule{{
		Name:           "r",
		When:           Condition{Signal: "attr:x", Op: OpGT, Value: 1},
		EngageAfter:    time.Millisecond,
		DisengageAfter: time.Millisecond,
		Cooldown:       time.Millisecond,
		Action:         act,
	}}
	e := newTestEngine(t, rs, Config{})
	var events []Event
	e.OnEvent(func(ev Event) { events = append(events, ev) })
	now := time.Unix(0, 0)

	flip := func(v float64) {
		feed(e, "n", "x", v)
		now = now.Add(2 * time.Millisecond)
		e.Sweep(now)
		now = now.Add(2 * time.Millisecond)
		e.Sweep(now)
	}
	// Each engage+disengage is 2 transitions; the 7th transition inside
	// the 10 s window blows the budget of 6.
	for i := 0; i < 3; i++ {
		flip(5) // engage (1, 3, 5)
		flip(0) // disengage (2, 4, 6)
	}
	if e.Status()[0].Quarantined {
		t.Fatal("quarantined within the budget of 6 transitions")
	}
	flip(5) // engage (7) → quarantine
	st := e.Status()[0]
	if !st.Quarantined {
		t.Fatalf("want quarantined, got %+v", st)
	}
	quarantined := false
	for _, ev := range events {
		if ev.Type == EventQuarantined && ev.Reason == "flapping" {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("no quarantine event in %v", events)
	}
	// Benched: the condition holding does nothing.
	feed(e, "n", "x", 5)
	for i := 0; i < 10; i++ {
		now = now.Add(10 * time.Millisecond)
		e.Sweep(now)
	}
	if e.Engaged("r") {
		t.Fatal("engaged while quarantined")
	}
	// Quarantine expires → rule evaluates again.
	now = now.Add(30 * time.Second)
	e.Sweep(now)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	if !e.Engaged("r") {
		t.Fatal("did not re-engage after quarantine expiry")
	}
}

func TestEngineGuardRollback(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delta bool
		// error counts fed before engagement and during probation
		before, during float64
		wantRollback   bool
	}{
		// Delta guard: growth since engagement > 0 trips.
		{"delta-trips", true, 10, 12, true},
		{"delta-holds", true, 10, 10, false},
		// Absolute guard: value > 0 trips regardless of history.
		{"absolute-trips", false, 0, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			act := &fakeAction{}
			rs := []Rule{{
				Name:        "r",
				When:        Condition{Signal: "attr:x", Op: OpGT, Value: 1},
				EngageAfter: time.Millisecond,
				Guard: &Guard{
					Condition: Condition{Signal: "attr:err", Op: OpGT, Value: 0},
					Delta:     tc.delta,
					Probation: time.Second,
				},
				Action: act,
			}}
			e := newTestEngine(t, rs, Config{})
			var rolled bool
			e.OnEvent(func(ev Event) {
				if ev.Type == EventRolledBack {
					rolled = true
				}
			})
			now := time.Unix(0, 0)
			feed(e, "n", "x", 5)
			feed(e, "n", "err", tc.before)
			e.Sweep(now)
			now = now.Add(2 * time.Millisecond)
			e.Sweep(now)
			if !e.Engaged("r") {
				t.Fatal("not engaged")
			}
			feed(e, "n", "err", tc.during)
			now = now.Add(100 * time.Millisecond) // inside probation
			e.Sweep(now)
			st := e.Status()[0]
			if tc.wantRollback {
				if e.Engaged("r") || st.Rollbacks != 1 || !st.Quarantined || !rolled {
					t.Fatalf("want rollback+quarantine, got %+v rolled=%v", st, rolled)
				}
			} else if !e.Engaged("r") || st.Rollbacks != 0 {
				t.Fatalf("spurious rollback: %+v", st)
			}
		})
	}
}

func TestEngineGuardExpiresWithProbation(t *testing.T) {
	act := &fakeAction{}
	rs := []Rule{{
		Name:        "r",
		When:        Condition{Signal: "attr:x", Op: OpGT, Value: 1},
		EngageAfter: time.Millisecond,
		Guard: &Guard{
			Condition: Condition{Signal: "attr:err", Op: OpGT, Value: 0},
			Probation: 100 * time.Millisecond,
		},
		Action: act,
	}}
	e := newTestEngine(t, rs, Config{})
	now := time.Unix(0, 0)
	feed(e, "n", "x", 5)
	e.Sweep(now)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	if !e.Engaged("r") {
		t.Fatal("not engaged")
	}
	// Guard signal trips AFTER probation ended: no rollback.
	now = now.Add(200 * time.Millisecond)
	feed(e, "n", "err", 5)
	e.Sweep(now)
	if !e.Engaged("r") || e.Status()[0].Rollbacks != 0 {
		t.Fatalf("rolled back outside probation: %+v", e.Status()[0])
	}
}

func TestEngineGroupArbitration(t *testing.T) {
	actLo := &fakeAction{}
	actHi := &fakeAction{}
	mk := func(name string, prio int, act Action) Rule {
		return Rule{
			Name:        name,
			When:        Condition{Signal: "attr:x", Op: OpGT, Value: 1},
			EngageAfter: time.Millisecond,
			Cooldown:    time.Millisecond,
			Priority:    prio,
			Group:       "g",
			Action:      act,
		}
	}
	// Declared high-priority-number first: arbitration must still pick
	// the lower number.
	e := newTestEngine(t, []Rule{mk("hi", 10, actHi), mk("lo", 1, actLo)}, Config{})
	now := time.Unix(0, 0)
	feed(e, "n", "x", 5)
	e.Sweep(now)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	if !e.Engaged("lo") || e.Engaged("hi") {
		t.Fatalf("want lo engaged: lo=%v hi=%v", e.Engaged("lo"), e.Engaged("hi"))
	}
	// hi is deferred with group-occupied.
	var deferred bool
	e.OnEvent(func(ev Event) {
		if ev.Rule == "hi" && ev.Type == EventDeferred && ev.Reason == "group-occupied" {
			deferred = true
		}
	})
	now = now.Add(10 * time.Millisecond)
	e.Sweep(now)
	if !deferred {
		t.Fatal("hi not deferred while lo holds the group")
	}
	if actHi.applies != 0 {
		t.Fatal("hi applied while group occupied")
	}
}

func TestEngineGroupPreemption(t *testing.T) {
	actLo := &fakeAction{}
	actHi := &fakeAction{}
	rs := []Rule{
		{
			Name:        "hi",
			When:        Condition{Signal: "attr:hi", Op: OpGT, Value: 1},
			EngageAfter: time.Millisecond,
			Cooldown:    time.Millisecond,
			Priority:    10,
			Group:       "g",
			Action:      actHi,
		},
		{
			Name:        "lo",
			When:        Condition{Signal: "attr:lo", Op: OpGT, Value: 1},
			EngageAfter: time.Millisecond,
			Cooldown:    time.Millisecond,
			Priority:    1,
			Group:       "g",
			Action:      actLo,
		},
	}
	e := newTestEngine(t, rs, Config{})
	now := time.Unix(0, 0)
	// hi engages first (lo's condition not holding yet).
	feed(e, "n", "hi", 5)
	e.Sweep(now)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	if !e.Engaged("hi") {
		t.Fatal("hi not engaged")
	}
	// lo's condition arrives: strictly lower priority number preempts.
	feed(e, "n", "lo", 5)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	if e.Engaged("hi") || !e.Engaged("lo") {
		t.Fatalf("want preemption: hi=%v lo=%v", e.Engaged("hi"), e.Engaged("lo"))
	}
	if actHi.reverts != 1 {
		t.Fatalf("hi reverts=%d", actHi.reverts)
	}
}

func TestEngineSupervisorConflict(t *testing.T) {
	edge := core.Edge{From: "a", To: "b", Port: 0}
	act := &fakeAction{edges: []core.Edge{edge}}
	claimer := &fakeClaimer{}
	rs := []Rule{{
		Name:        "r",
		When:        Condition{Signal: "attr:x", Op: OpGT, Value: 1},
		EngageAfter: time.Millisecond,
		Cooldown:    time.Millisecond,
		// The test's 6 engagements fit the flap budget of 6 exactly; if
		// the 5 supervisor-forced reverts also counted, it would
		// quarantine.
		Action: act,
	}}
	e := newTestEngine(t, rs, Config{Claimer: claimer})
	var events []Event
	e.OnEvent(func(ev Event) { events = append(events, ev) })
	now := time.Unix(0, 0)

	// Supervisor holds the edge from the start: the rule defers, never
	// engages.
	claimer.edges = []core.Edge{edge}
	feed(e, "n", "x", 5)
	e.Sweep(now)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	if e.Engaged("r") || act.applies != 0 {
		t.Fatal("engaged against a supervisor claim")
	}
	found := false
	for _, ev := range events {
		if ev.Type == EventDeferred && ev.Reason == "supervisor-claim" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no supervisor-claim deferral in %v", events)
	}

	// Claim released → rule engages.
	claimer.edges = nil
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	if !e.Engaged("r") {
		t.Fatal("did not engage after claim release")
	}

	// Claim returns while engaged → immediate yield, not counted as a
	// flap even when repeated past MaxFlaps.
	for i := 0; i < 5; i++ {
		claimer.edges = []core.Edge{edge}
		now = now.Add(2 * time.Millisecond)
		e.Sweep(now)
		if e.Engaged("r") {
			t.Fatal("still engaged under supervisor claim")
		}
		claimer.edges = nil
		now = now.Add(2 * time.Millisecond)
		e.Sweep(now)
		if !e.Engaged("r") {
			t.Fatalf("round %d: did not re-engage", i)
		}
	}
	if e.Status()[0].Quarantined {
		t.Fatal("supervisor yields counted toward flap damping")
	}
}

func TestEngineActionFailures(t *testing.T) {
	act := &fakeAction{failApply: errors.New("boom")}
	rs := []Rule{{
		Name:        "r",
		When:        Condition{Signal: "attr:x", Op: OpGT, Value: 1},
		EngageAfter: time.Millisecond,
		Cooldown:    time.Second,
		Action:      act,
	}}
	e := newTestEngine(t, rs, Config{})
	now := time.Unix(0, 0)
	feed(e, "n", "x", 5)
	e.Sweep(now)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	if e.Engaged("r") || act.applies != 1 {
		t.Fatalf("engaged=%v applies=%d after failed apply", e.Engaged("r"), act.applies)
	}
	if e.Status()[0].LastErr == "" {
		t.Fatal("failed apply not recorded in status")
	}
	// Failed engage opens the cooldown: no retry until it passes.
	for i := 0; i < 10; i++ {
		now = now.Add(10 * time.Millisecond)
		e.Sweep(now)
	}
	if act.applies != 1 {
		t.Fatalf("retried inside cooldown: %d applies", act.applies)
	}
	act.failApply = nil
	now = now.Add(time.Second)
	e.Sweep(now)
	if !e.Engaged("r") {
		t.Fatal("did not engage after cooldown with apply fixed")
	}

	// Failed revert keeps the rule engaged; the next sweep retries.
	act.failRevrt = errors.New("stuck")
	feed(e, "n", "x", 0)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	now = now.Add(DefaultDisengageAfter)
	e.Sweep(now)
	if !e.Engaged("r") || act.reverts != 1 {
		t.Fatalf("engaged=%v reverts=%d after failed revert", e.Engaged("r"), act.reverts)
	}
	act.failRevrt = nil
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	if e.Engaged("r") || act.reverts != 2 {
		t.Fatalf("revert not retried: engaged=%v reverts=%d", e.Engaged("r"), act.reverts)
	}
}

func TestEngineTapNodeFilter(t *testing.T) {
	act := &fakeAction{}
	rs := []Rule{{
		Name:        "r",
		When:        Condition{Signal: "attr:x@wanted", Op: OpGT, Value: 1},
		EngageAfter: time.Millisecond,
		Action:      act,
	}}
	e := newTestEngine(t, rs, Config{})
	now := time.Unix(0, 0)
	// Same attribute from the wrong node is invisible.
	feed(e, "other", "x", 5)
	e.Sweep(now)
	now = now.Add(10 * time.Millisecond)
	e.Sweep(now)
	if e.Engaged("r") {
		t.Fatal("engaged on an emission from the wrong node")
	}
	feed(e, "wanted", "x", 5)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	if !e.Engaged("r") {
		t.Fatal("did not engage on the watched node")
	}
}

func TestEngineMonitorSignals(t *testing.T) {
	mon := health.NewMonitor(health.Policy{})
	act := &fakeAction{}
	rs := []Rule{{
		Name:        "r",
		When:        Condition{Signal: "errors:parser", Op: OpGE, Value: 2},
		EngageAfter: time.Millisecond,
		Action:      act,
	}}
	e := newTestEngine(t, rs, Config{Monitor: mon})
	if e.NeedsTap() {
		t.Fatal("monitor-only rule must not need a tap")
	}
	now := time.Unix(0, 0)
	e.Sweep(now) // node unknown → condition false, no panic
	mon.Tap("parser", core.Sample{})
	mon.Done("parser", 0, errors.New("e1"))
	mon.Done("parser", 0, errors.New("e2"))
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	now = now.Add(2 * time.Millisecond)
	e.Sweep(now)
	if !e.Engaged("r") {
		t.Fatal("did not engage on monitor error count")
	}
}

func TestNewRejectsBadRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule Rule
		want string
	}{
		{"no-name", Rule{Action: &fakeAction{}}, "missing name"},
		{"no-action", Rule{Name: "r", When: Condition{Signal: "attr:x", Op: OpGT}}, "missing action"},
		{"bad-signal", Rule{Name: "r", When: Condition{Signal: "bogus", Op: OpGT}, Action: &fakeAction{}}, "unknown signal"},
		{"bare-colon", Rule{Name: "r", When: Condition{Signal: "errors:", Op: OpGT}, Action: &fakeAction{}}, "unknown signal"},
		{"empty-attr", Rule{Name: "r", When: Condition{Signal: "attr:@node", Op: OpGT}, Action: &fakeAction{}}, "empty attribute key"},
		{"bad-op", Rule{Name: "r", When: Condition{Signal: "attr:x", Op: "~"}, Action: &fakeAction{}}, "unknown operator"},
		{"bad-clear", Rule{Name: "r", When: Condition{Signal: "attr:x", Op: OpGT}, ClearWhen: &Condition{Signal: "nope", Op: OpLT}, Action: &fakeAction{}}, "clear_when"},
		{"bad-guard", Rule{Name: "r", When: Condition{Signal: "attr:x", Op: OpGT}, Guard: &Guard{Condition: Condition{Signal: "nope", Op: OpGT}}, Action: &fakeAction{}}, "guard"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(Config{Rules: []Rule{tc.rule}, Adapter: passAdapter}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
			if err := Validate(tc.rule); err == nil {
				t.Fatal("Validate accepted the bad rule")
			}
		})
	}
	if _, err := New(Config{Rules: []Rule{{Name: "r", When: Condition{Signal: "attr:x", Op: OpGT}, Action: &fakeAction{}}}}); err == nil {
		t.Fatal("New accepted rules without an adapter")
	}
}

// TestNormalizeLeavesCallerRuleUnchanged: Validate and New fill the
// defaults of a copy, so the caller's rule, and the Guard it points
// to, stay as written for every other session built from it.
func TestNormalizeLeavesCallerRuleUnchanged(t *testing.T) {
	guard := &Guard{Condition: Condition{Signal: "errors:mid", Op: OpGT, Value: 1}}
	r := Rule{Name: "r", When: Condition{Signal: "attr:x", Op: OpGT}, Action: &fakeAction{}, Guard: guard}
	want := *guard
	if err := Validate(r); err != nil {
		t.Fatal(err)
	}
	if *guard != want {
		t.Errorf("Validate changed the caller's guard: probation %v", guard.Probation)
	}
	e := newTestEngine(t, []Rule{r}, Config{})
	if *guard != want {
		t.Errorf("New changed the caller's guard: probation %v", guard.Probation)
	}
	if got := e.states[0].rule.Guard.Probation; got != DefaultProbation {
		t.Errorf("engine guard probation = %v, want the default %v", got, DefaultProbation)
	}
}

func TestEngineProbeDedup(t *testing.T) {
	// Two rules on the same attribute share one probe.
	rs := []Rule{
		{Name: "a", When: Condition{Signal: "attr:x", Op: OpGT, Value: 1}, Action: &fakeAction{}},
		{Name: "b", When: Condition{Signal: "attr:x", Op: OpLT, Value: 0}, Action: &fakeAction{}},
		{Name: "c", When: Condition{Signal: "attr:x@n", Op: OpGT, Value: 1}, Action: &fakeAction{}},
	}
	e := newTestEngine(t, rs, Config{})
	if len(e.probes) != 2 {
		t.Fatalf("want 2 probes (x, x@n), got %d", len(e.probes))
	}
}

func TestEventTypeStrings(t *testing.T) {
	for ty, want := range map[EventType]string{
		EventEngaged:      "engaged",
		EventDisengaged:   "disengaged",
		EventRolledBack:   "rolled-back",
		EventQuarantined:  "quarantined",
		EventDeferred:     "deferred",
		EventActionFailed: "action-failed",
		EventType(99):     "unknown",
	} {
		if got := ty.String(); got != want {
			t.Fatalf("EventType(%d).String() = %q, want %q", ty, got, want)
		}
	}
}
