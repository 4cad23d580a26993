package config

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"perpos/internal/building"
	"perpos/internal/catalog"
	"perpos/internal/core"
	"perpos/internal/rules"
	"perpos/internal/wifi"
)

const ruledPipeline = `{
  "name": "ruled",
  "components": [
    {"id": "gps"},
    {"id": "parser", "type": "Parser"},
    {"id": "interpreter", "type": "Interpreter"},
    {"id": "app"}
  ],
  "connections": [
    {"from": "gps", "to": "parser", "port": 0},
    {"from": "parser", "to": "interpreter", "port": 0},
    {"from": "interpreter", "to": "app", "port": 0}
  ],
  "rules": {
    "rules": [
      {
        "name": "accuracy-filter",
        "when": {"signal": "attr:hdop", "op": ">", "value": 4},
        "clear_when": {"signal": "attr:hdop", "op": "<", "value": 2.5},
        "engage_after_ms": 100,
        "disengage_after_ms": 200,
        "cooldown_ms": 300,
        "priority": 1,
        "group": "accuracy",
        "action": {
          "kind": "insert",
          "component": {"id": "hdop-filter", "type": "HDOPFilter"},
          "at": {"from": "parser", "to": "interpreter", "port": 0}
        },
        "guard": {
          "signal": "errors:hdop-filter",
          "op": ">",
          "value": 0,
          "delta": true,
          "probation_ms": 700
        }
      },
      {
        "name": "swap",
        "when": {"signal": "errors:interpreter", "op": ">=", "value": 1},
        "action": {
          "kind": "swap",
          "break": {"from": "interpreter", "to": "app", "port": 0},
          "make": {"from": "parser", "to": "app", "port": 0}
        }
      },
      {
        "name": "power",
        "when": {"signal": "attr:speedMS@interpreter", "op": "<", "value": 0.3},
        "action": {"kind": "feature", "target": "gps", "feature": "periodic"}
      }
    ]
  }
}`

func TestParseAndReifyRules(t *testing.T) {
	p, err := Parse(strings.NewReader(ruledPipeline))
	if err != nil {
		t.Fatal(err)
	}
	if p.Rules == nil || len(p.Rules.Rules) != 3 {
		t.Fatalf("rules block dropped: %+v", p.Rules)
	}

	l, _ := newLoader(t)
	l.Features["periodic"] = l.Features["satellites"] // any factory will do
	rs, err := l.Rules(p.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d rules, want 3", len(rs))
	}

	r := rs[0]
	if r.Name != "accuracy-filter" ||
		r.When != (rules.Condition{Signal: "attr:hdop", Op: rules.OpGT, Value: 4}) ||
		r.ClearWhen == nil || r.ClearWhen.Op != rules.OpLT ||
		r.EngageAfter != 100*time.Millisecond ||
		r.DisengageAfter != 200*time.Millisecond ||
		r.Cooldown != 300*time.Millisecond ||
		r.Priority != 1 || r.Group != "accuracy" {
		t.Fatalf("rule 0 conversion wrong: %+v", r)
	}
	ia, ok := r.Action.(*rules.InsertAction)
	if !ok || ia.ID != "hdop-filter" || ia.From != "parser" || ia.To != "interpreter" {
		t.Fatalf("rule 0 action wrong: %#v", r.Action)
	}
	if c := ia.Build("x"); c.ID() != "x" {
		t.Fatalf("insert factory built %q, want the requested id", c.ID())
	}
	if r.Guard == nil || !r.Guard.Delta || r.Guard.Probation != 700*time.Millisecond ||
		r.Guard.Signal != "errors:hdop-filter" {
		t.Fatalf("rule 0 guard wrong: %+v", r.Guard)
	}

	if _, ok := rs[1].Action.(*rules.SwapAction); !ok {
		t.Fatalf("rule 1 action wrong: %#v", rs[1].Action)
	}
	fa, ok := rs[2].Action.(*rules.FeatureAction)
	if !ok || fa.Target != "gps" {
		t.Fatalf("rule 2 action wrong: %#v", rs[2].Action)
	}

	// Nil def is a no-op, not an error.
	if rs, err := l.Rules(nil); err != nil || rs != nil {
		t.Fatalf("Rules(nil) = %v, %v", rs, err)
	}
}

func TestRulesErrorsWrapErrBadRule(t *testing.T) {
	l, _ := newLoader(t)
	for name, d := range map[string]*RulesDef{
		"bad-signal": {Rules: []RuleDef{{
			Name:   "r",
			When:   RuleConditionDef{Signal: "bogus", Op: ">"},
			Action: RuleActionDef{Kind: "swap", Break: &ConnectionDef{From: "a", To: "b"}, Make: &ConnectionDef{From: "c", To: "b"}},
		}}},
		"bad-op": {Rules: []RuleDef{{
			Name:   "r",
			When:   RuleConditionDef{Signal: "attr:x", Op: "~"},
			Action: RuleActionDef{Kind: "swap", Break: &ConnectionDef{From: "a", To: "b"}, Make: &ConnectionDef{From: "c", To: "b"}},
		}}},
		"unknown-kind": {Rules: []RuleDef{{
			Name:   "r",
			When:   RuleConditionDef{Signal: "attr:x", Op: ">"},
			Action: RuleActionDef{Kind: "explode"},
		}}},
		"insert-no-type": {Rules: []RuleDef{{
			Name:   "r",
			When:   RuleConditionDef{Signal: "attr:x", Op: ">"},
			Action: RuleActionDef{Kind: "insert", Component: ComponentDef{ID: "f"}, At: &ConnectionDef{From: "a", To: "b"}},
		}}},
		"insert-unknown-type": {Rules: []RuleDef{{
			Name:   "r",
			When:   RuleConditionDef{Signal: "attr:x", Op: ">"},
			Action: RuleActionDef{Kind: "insert", Component: ComponentDef{ID: "f", Type: "NoSuchThing"}, At: &ConnectionDef{From: "a", To: "b"}},
		}}},
		"insert-no-at": {Rules: []RuleDef{{
			Name:   "r",
			When:   RuleConditionDef{Signal: "attr:x", Op: ">"},
			Action: RuleActionDef{Kind: "insert", Component: ComponentDef{ID: "f", Type: "HDOPFilter"}},
		}}},
		"swap-half": {Rules: []RuleDef{{
			Name:   "r",
			When:   RuleConditionDef{Signal: "attr:x", Op: ">"},
			Action: RuleActionDef{Kind: "swap", Break: &ConnectionDef{From: "a", To: "b"}},
		}}},
		"feature-unknown": {Rules: []RuleDef{{
			Name:   "r",
			When:   RuleConditionDef{Signal: "attr:x", Op: ">"},
			Action: RuleActionDef{Kind: "feature", Target: "gps", Feature: "no-such-feature"},
		}}},
		"no-name": {Rules: []RuleDef{{
			When:   RuleConditionDef{Signal: "attr:x", Op: ">"},
			Action: RuleActionDef{Kind: "feature", Target: "gps", Feature: "satellites"},
		}}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := l.Rules(d); !errors.Is(err, ErrBadRule) {
				t.Fatalf("want ErrBadRule, got %v", err)
			}
		})
	}
}

// The shipped demo config must parse, reify against the standard
// catalog, and line up with the supervision block it shares edges with.
func TestRulesFusionExampleConfig(t *testing.T) {
	f, err := os.Open("../../examples/configs/rules-fusion.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rules == nil || p.Supervision == nil {
		t.Fatal("example config must declare both rules and supervision")
	}

	b := building.Evaluation()
	db := wifi.Survey(wifi.DefaultDeployment(b), 0, wifi.SurveyConfig{})
	reg, err := catalog.Standard(catalog.Deps{Building: b, Database: db})
	if err != nil {
		t.Fatal(err)
	}
	l := &Loader{
		Registry: reg,
		Features: map[string]func() core.Feature{
			"hdop":     nil, // never built here; reify only needs the rules' own keys
			"periodic": func() core.Feature { return nil },
		},
	}
	rs, err := l.Rules(p.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("example ships %d rules, want the three case studies", len(rs))
	}

	// The provider-swap rule must deliberately share an edge with the
	// supervisor's reroutes so arbitration has something to arbitrate.
	var swap *rules.SwapAction
	for _, r := range rs {
		if a, ok := r.Action.(*rules.SwapAction); ok {
			swap = a
		}
	}
	if swap == nil {
		t.Fatal("example has no swap rule")
	}
	shared := false
	for _, rr := range p.Supervision.HealthReroutes() {
		if rr.Break == swap.Break || rr.Make == swap.Break || rr.Break == swap.Make || rr.Make == swap.Make {
			shared = true
		}
	}
	if !shared {
		t.Fatal("swap rule shares no edge with the supervision reroutes")
	}

	// The reroutes are one conflict group with explicit priorities.
	rr := p.Supervision.HealthReroutes()
	if len(rr) != 2 || rr[0].Priority != 0 || rr[1].Priority != 1 {
		t.Fatalf("example reroutes = %+v, want explicit priorities 0 and 1", rr)
	}
	if rr[0].Break != rr[1].Break {
		t.Error("example reroutes should share a Break edge (one conflict group)")
	}
}
