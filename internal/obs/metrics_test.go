package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"perpos/internal/core"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Sum != 500500 {
		t.Errorf("sum = %d, want 500500", s.Sum)
	}
	if s.Max != 1000 {
		t.Errorf("max = %d, want 1000", s.Max)
	}
	// Quantiles are log2-bucket upper bounds: within 2x above the true
	// value, never below it.
	if s.P50 < 500 || s.P50 > 1024 {
		t.Errorf("p50 = %d, want in [500, 1024]", s.P50)
	}
	if s.P99 < 990 || s.P99 > 1024 {
		t.Errorf("p99 = %d, want in [990, 1024]", s.P99)
	}
	if s.Mean < 500 || s.Mean > 501 {
		t.Errorf("mean = %f, want ~500.5", s.Mean)
	}
}

// TestBucketOfBoundaries pins the documented bucket contract at its
// boundaries: bucket 0 holds value <= 1, bucket i holds
// 2^(i-1) < value <= 2^i. Exact powers of two sit in the bucket whose
// upper bound they equal — the regression here was bits.Len64(v)
// pushing them one bucket up.
func TestBucketOfBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-1 << 40, 0}, // negatives clamp into bucket 0
		{-1, 0},
		{0, 0},
		{1, 0}, // documented: bucket 0 holds value <= 1
		{2, 1}, // 2^1 at its own bucket's upper bound
		{3, 2},
		{4, 2}, // 2^2
		{5, 3},
		{8, 3},  // 2^3
		{9, 4},  // just past 2^3
		{15, 4}, // just under 2^4
		{16, 4}, // 2^4
		{17, 5},
		{1 << 20, 20},
		{(1 << 20) + 1, 21},
		{1 << 34, 34},
		{1 << 35, 35},              // last regular bucket
		{(1 << 35) + 1, 35},        // overflow clamps to the last bucket
		{1 << 62, histBuckets - 1}, // deep overflow
	}
	for _, tc := range cases {
		if got := bucketOf(tc.v); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// TestQuantileUpperBounds verifies quantile estimates are bucket upper
// bounds — at least the true value, at most twice it — including for
// values of exactly 1 and exact powers of two.
func TestQuantileUpperBounds(t *testing.T) {
	cases := []struct {
		observe []int64
		want    int64 // p50 == the single bucket's upper bound
	}{
		{[]int64{0}, 1},
		{[]int64{1}, 1}, // ones report as 1, not 0
		{[]int64{2}, 2}, // powers of two report exactly, not doubled
		{[]int64{4}, 4},
		{[]int64{1024}, 1024},
		{[]int64{3}, 4},
		{[]int64{1000}, 1024},
	}
	for _, tc := range cases {
		var h Histogram
		for _, v := range tc.observe {
			h.Observe(v)
		}
		if got := h.Snapshot().P50; got != tc.want {
			t.Errorf("P50 after observing %v = %d, want %d", tc.observe, got, tc.want)
		}
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	h.Observe(-5)          // clamped into bucket 0
	h.Observe(0)           // bucket 0
	h.Observe(1 << 62)     // overflow bucket
	h.ObserveDuration(3e6) // 3ms in ns
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Max != 1<<62 {
		t.Errorf("max = %d, want 1<<62", s.Max)
	}
	if empty := new(Histogram).Snapshot(); empty.Count != 0 || empty.P50 != 0 {
		t.Errorf("zero histogram snapshot = %+v, want zeros", empty)
	}
}

func TestMetricsSnapshotShape(t *testing.T) {
	m := New()
	tapN(NewGraphObserver(m, nil), "gps", 3)
	m.ProviderTransition("AVAILABLE")
	m.ObserveTreeDepth(3)
	m.CheckpointAppend("s", 128, time.Millisecond, nil)
	m.CheckpointAppend("s", 0, 0, errors.New("boom"))
	m.ClusterPumpErrors.Inc()

	snap := m.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
	for _, key := range []string{
		`"spans_emitted":3`, `"sessions_live":0`,
		`"provider_transitions":{"AVAILABLE":1}`, `"tree_depth"`, `"nodes"`,
		`"pump_errors":1`,
	} {
		if !strings.Contains(string(data), key) {
			t.Errorf("snapshot JSON missing %s:\n%s", key, data)
		}
	}
	ck := snap["checkpoint"].(map[string]any)
	if ck["writes"].(uint64) != 1 || ck["errors"].(uint64) != 1 || ck["bytes"].(uint64) != 128 {
		t.Errorf("checkpoint block = %v, want writes=1 errors=1 bytes=128", ck)
	}
	if ids := m.nodes.keys(); len(ids) != 1 || ids[0] != "gps" {
		t.Errorf("node IDs = %v, want [gps]", ids)
	}
}

// gatedObserver is a core.Observer test double that refuses one node.
type gatedObserver struct {
	mu      sync.Mutex
	refused string
	results []string
	taps    int
}

func (g *gatedObserver) Tap(string, core.Sample) { g.taps++ }
func (g *gatedObserver) Done(node string, _ time.Duration, err error) {
	g.mu.Lock()
	g.results = append(g.results, fmt.Sprintf("%s:%v", node, err != nil))
	g.mu.Unlock()
}
func (g *gatedObserver) Restarted(string, int)  {}
func (g *gatedObserver) Allow(node string) bool { return node != g.refused }

func TestGraphObserverSeams(t *testing.T) {
	m := New()
	inner := &gatedObserver{refused: "bad"}
	o := NewGraphObserver(m, inner)

	// Gate: refusals counted globally and per node, inner consulted.
	if o.Allow("bad") {
		t.Error("Allow(bad) = true, want inner refusal to pass through")
	}
	if !o.Allow("good") {
		t.Error("Allow(good) = false")
	}
	if m.SpansDropped.Value() != 1 || m.Node("bad").Drops.Value() != 1 {
		t.Errorf("drops global=%d node=%d, want 1/1",
			m.SpansDropped.Value(), m.Node("bad").Drops.Value())
	}

	// Results: errors and contained panics counted; inner still sees all.
	o.Done("fuse", 0, nil)
	o.Done("fuse", 0, errors.New("plain"))
	o.Done("fuse", 0, fmt.Errorf("wrapped: %w", core.ErrPanicked))
	if got := m.Node("fuse").Errors.Value(); got != 2 {
		t.Errorf("fuse errors = %d, want 2", got)
	}
	if got := m.Node("fuse").Panics.Value(); got != 1 {
		t.Errorf("fuse panics = %d, want 1", got)
	}
	if len(inner.results) != 3 {
		t.Errorf("inner saw %d results, want 3", len(inner.results))
	}

	o.Restarted("gps", 2)
	if got := m.Node("gps").Restarts.Value(); got != 1 {
		t.Errorf("gps restarts = %d, want 1", got)
	}

	// Only timed calls (d > 0) feed the latency histogram.
	o.Done("fuse", 2*time.Millisecond, nil)
	if got := m.Node("fuse").ProcessNs.Count(); got != 1 {
		t.Errorf("fuse timings = %d, want 1", got)
	}

	// Tap counts emissions on any path, and forwards to the inner
	// observer.
	o.Tap("gps", core.Sample{})
	o.Tap("gps", core.Sample{})
	if m.SpansEmitted() != 2 || m.Emissions("gps") != 2 {
		t.Errorf("emissions global=%d node=%d, want 2/2",
			m.SpansEmitted(), m.Emissions("gps"))
	}
	if inner.taps != 2 {
		t.Errorf("inner saw %d taps, want 2", inner.taps)
	}
}

func TestGraphObserverNilInner(t *testing.T) {
	m := New()
	o := NewGraphObserver(m, nil)
	if !o.Allow("any") {
		t.Error("Allow without inner gate must be open")
	}
	o.Done("n", 0, errors.New("x")) // must not panic
	o.Restarted("n", 1)
	o.Tap("n", core.Sample{})
	if got := m.Node("n").Errors.Value(); got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
}
