package main

import (
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: perpos/internal/runtime
cpu: Intel(R) Xeon(R) Processor
BenchmarkRuntimeSaturated/sessions_100-2         	  428204	      5969 ns/op	    167480 samples/s	    1746 B/op	       5 allocs/op
BenchmarkRuntimeSaturated/sessions_100-2         	  512000	      5301 ns/op	    184500 samples/s	    1702 B/op	       5 allocs/op
BenchmarkRuntimeSessions/paced-4                 	     100	 10000000 ns/op	        15.00 ceiling/session	        14.00 samples/session
PASS
`

func TestParseGoBenchStripsProcSuffix(t *testing.T) {
	run, err := parseGoBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.rows) != 2 {
		t.Fatalf("got %d rows, want 2: %v", len(run.rows), run.rows)
	}
	// Both -count runs of a row land under one machine-independent name.
	if got := len(run.rows["BenchmarkRuntimeSaturated/sessions_100"]["ns/op"]); got != 2 {
		t.Errorf("saturated ns/op values = %d, want 2", got)
	}
	if _, ok := run.rows["BenchmarkRuntimeSessions/paced"]; !ok {
		t.Errorf("paced row not stripped of its -4 suffix: %v", run.rows)
	}
	if run.cpu != "Intel(R) Xeon(R) Processor" {
		t.Errorf("cpu = %q, want the header's model", run.cpu)
	}
}

func TestParseGoBenchMetrics(t *testing.T) {
	run, err := parseGoBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	sat := run.rows["BenchmarkRuntimeSaturated/sessions_100"]
	for unit, want := range map[string]float64{"ns/op": 5969, "samples/s": 167480, "B/op": 1746, "allocs/op": 5} {
		if got := sat[unit]; len(got) == 0 || got[0] != want {
			t.Errorf("%s = %v, want %g first", unit, got, want)
		}
	}
	// The paced line carries custom metrics but no -benchmem columns.
	paced := run.rows["BenchmarkRuntimeSessions/paced"]
	if _, ok := paced["allocs/op"]; ok {
		t.Errorf("paced line grew memory metrics: %v", paced)
	}
	if got := paced["ceiling/session"]; len(got) != 1 || got[0] != 15 {
		t.Errorf("ceiling/session = %v, want [15]", got)
	}
}

func TestStripProcSuffix(t *testing.T) {
	cases := []struct{ in, want string }{
		{"BenchmarkX-8", "BenchmarkX"},
		{"BenchmarkX-16", "BenchmarkX"},
		{"BenchmarkX", "BenchmarkX"},
		{"BenchmarkX/sub_case-4", "BenchmarkX/sub_case"},
		// A trailing -word is part of the name, not a width.
		{"BenchmarkX-fast", "BenchmarkX-fast"},
	}
	for _, c := range cases {
		if got := stripProcSuffix(c.in); got != c.want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestCheckValue: medians across -count runs (the mean of the middle
// two for an even count), divided by the over operand, which defaults
// to the check's own row or metric.
func TestCheckValue(t *testing.T) {
	run, err := parseGoBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	sat, paced := "BenchmarkRuntimeSaturated/sessions_100", "BenchmarkRuntimeSessions/paced"
	cases := []struct {
		c    check
		want float64
	}{
		{check{Row: sat, Metric: "ns/op"}, (5969 + 5301) / 2.0},
		{check{Row: sat, Metric: "allocs/op"}, 5},
		{check{Row: paced, Metric: "samples/session", Over: &operand{Metric: "ceiling/session"}}, 14.0 / 15},
		{check{Row: paced, Metric: "ns/op", Over: &operand{Row: sat}}, 10000000 / ((5969 + 5301) / 2.0)},
	}
	for _, tc := range cases {
		got, err := tc.c.value(run)
		if err != nil || got != tc.want {
			t.Errorf("%+v: value = %v, %v; want %v", tc.c, got, err, tc.want)
		}
	}
	if _, err := (&check{Row: paced, Metric: "allocs/op"}).value(run); err == nil {
		t.Error("a metric the row never reported has a value")
	}
}
