package config

import (
	"strings"
	"testing"
	"time"
)

const supervisedPipeline = `{
  "name": "fusion",
  "components": [
    {"id": "gps"},
    {"id": "app"}
  ],
  "connections": [
    {"from": "gps", "to": "app", "port": 0}
  ],
  "supervision": {
    "max_consecutive_errors": 2,
    "deadlines_ms": {"wifi": 150},
    "probe_interval_ms": 20,
    "sweep_ms": 10,
    "restart": {"base_ms": 2, "max_ms": 40},
    "reroutes": [
      {
        "watch": "wifi",
        "break": {"from": "particle-filter", "to": "app", "port": 0},
        "make": {"from": "interpreter", "to": "app", "port": 0}
      }
    ]
  }
}`

func TestParseSupervision(t *testing.T) {
	p, err := Parse(strings.NewReader(supervisedPipeline))
	if err != nil {
		t.Fatal(err)
	}
	if p.Supervision == nil {
		t.Fatal("supervision block dropped")
	}

	pol := p.Supervision.Policy()
	if pol.MaxConsecutiveErrors != 2 {
		t.Errorf("MaxConsecutiveErrors = %d, want 2", pol.MaxConsecutiveErrors)
	}
	if got := pol.Deadlines["wifi"]; got != 150*time.Millisecond {
		t.Errorf("Deadlines[wifi] = %v, want 150ms", got)
	}
	if pol.ProbeInterval != 20*time.Millisecond {
		t.Errorf("ProbeInterval = %v, want 20ms", pol.ProbeInterval)
	}
	if pol.Sweep != 10*time.Millisecond {
		t.Errorf("Sweep = %v, want 10ms", pol.Sweep)
	}
	r := pol.Restart
	if r.Base != 2*time.Millisecond || r.Max != 40*time.Millisecond {
		t.Errorf("Restart = %+v, want {2ms 40ms}", r)
	}

	rr := p.Supervision.HealthReroutes()
	if len(rr) != 1 {
		t.Fatalf("reroutes = %d, want 1", len(rr))
	}
	if rr[0].Watch != "wifi" {
		t.Errorf("Watch = %q, want wifi", rr[0].Watch)
	}
	if rr[0].Break.From != "particle-filter" || rr[0].Break.To != "app" || rr[0].Break.Port != 0 {
		t.Errorf("Break = %+v", rr[0].Break)
	}
	if rr[0].Make.From != "interpreter" || rr[0].Make.To != "app" || rr[0].Make.Port != 0 {
		t.Errorf("Make = %+v", rr[0].Make)
	}
}

func TestParseWithoutSupervision(t *testing.T) {
	p, err := Parse(strings.NewReader(`{"name": "bare", "components": [{"id": "gps"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Supervision != nil {
		t.Errorf("Supervision = %+v, want nil when absent", p.Supervision)
	}
}
