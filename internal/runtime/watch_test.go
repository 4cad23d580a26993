package runtime

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"perpos/internal/checkpoint"
	"perpos/internal/core"
	"perpos/internal/health"
	"perpos/internal/obs"
	"perpos/internal/positioning"
)

// TestEvictWaitsForStepNBatch: Evict on a session with no checkpoint
// store returns only after an in-flight StepN batch has finished, so
// no position reaches a subscriber once Evict has returned, and a
// later StepN gets ErrClosed.
func TestEvictWaitsForStepNBatch(t *testing.T) {
	m, err := NewManager(saturatedSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.GetOrCreate("target-evict")
	if err != nil {
		t.Fatal(err)
	}
	var evicted atomic.Bool
	var late atomic.Int64
	started := make(chan struct{})
	var once sync.Once
	s.Provider().Subscribe(func(positioning.Position) {
		once.Do(func() { close(started) })
		if evicted.Load() {
			late.Add(1)
		}
	})
	done := make(chan error, 1)
	go func() {
		_, err := s.StepN(20000)
		done <- err
	}()
	<-started
	if !m.Evict("target-evict") {
		t.Fatal("evict reported no session")
	}
	evicted.Store(true)
	if err := <-done; err != nil {
		t.Fatalf("in-flight batch: %v", err)
	}
	if n := late.Load(); n != 0 {
		t.Errorf("%d positions reached the subscriber after Evict returned", n)
	}
	if _, err := s.StepN(1); !errors.Is(err, ErrClosed) {
		t.Errorf("StepN after Evict: err = %v, want ErrClosed", err)
	}
}

// emissionCount is a counting Graph.Tap: the reference the hub's
// emission totals must equal.
type emissionCount struct {
	mu     sync.Mutex
	byNode map[string]uint64
}

func (c *emissionCount) watch(s *Session) {
	s.Graph().Tap(func(node string, _ core.Sample) {
		c.mu.Lock()
		c.byNode[node]++
		c.mu.Unlock()
	})
}

func (c *emissionCount) snapshot() (map[string]uint64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.byNode))
	var sum uint64
	for k, v := range c.byNode {
		out[k] = v
		sum += v
	}
	return out, sum
}

// checkHubEmissions compares the hub's JSON and Prometheus emission
// totals with what the counting taps saw.
func checkHubEmissions(t *testing.T, hub *obs.Metrics, want map[string]uint64, wantSum uint64) {
	t.Helper()
	raw, err := json.Marshal(hub.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Spans uint64 `json:"spans_emitted"`
		Nodes map[string]struct {
			Emissions uint64 `json:"emissions"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Spans != wantSum {
		t.Errorf("JSON spans_emitted = %d, want %d", snap.Spans, wantSum)
	}
	for node, n := range want {
		if got := snap.Nodes[node].Emissions; got != n {
			t.Errorf("JSON nodes.%s.emissions = %d, want %d", node, got, n)
		}
	}

	var b strings.Builder
	obs.WritePrometheus(&b, hub)
	prom := make(map[string]uint64)
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseUint(value, 10, 64); err == nil {
			prom[name] = v
		}
	}
	if got := prom["perpos_spans_emitted_total"]; got != wantSum {
		t.Errorf("perpos_spans_emitted_total = %d, want %d", got, wantSum)
	}
	for node, n := range want {
		key := fmt.Sprintf("perpos_node_emissions_total{node=%q}", node)
		if got := prom[key]; got != n {
			t.Errorf("%s = %d, want %d", key, got, n)
		}
	}
}

// TestHubEmissionsExact: the hub's emission totals equal a counting
// Graph.Tap's across sessions that are stepped, evicted (one of them
// mid-StepN), resumed and closed — while some are live and after all
// are gone — and closed sessions leave no cell in the hub.
func TestHubEmissionsExact(t *testing.T) {
	hub := obs.New()
	cfg := saturatedSessionConfig(t)
	cfg.Observability = hub
	cfg.Health = &health.Policy{MaxConsecutiveErrors: 2}
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg.Checkpoints = store
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	count := &emissionCount{byNode: make(map[string]uint64)}
	open := func(id string) *Session {
		t.Helper()
		s, err := m.GetOrCreate(id)
		if err != nil {
			t.Fatal(err)
		}
		count.watch(s)
		return s
	}
	step := func(s *Session, n int) {
		t.Helper()
		if _, err := s.StepN(n); err != nil {
			t.Fatal(err)
		}
	}

	live := open("live")
	step(live, 40)

	// Evicted between batches, then resumed and stepped again.
	resumed := open("resumed")
	step(resumed, 30)
	m.Evict("resumed")
	r, err := m.ResumeSession("resumed")
	if err != nil {
		t.Fatal(err)
	}
	count.watch(r)
	step(r, 25)

	// Evicted while a batch is delivering.
	mid := open("mid-batch")
	started := make(chan struct{})
	var once sync.Once
	mid.Provider().Subscribe(func(positioning.Position) { once.Do(func() { close(started) }) })
	done := make(chan error, 1)
	go func() {
		_, err := mid.StepN(2000)
		done <- err
	}()
	<-started
	m.Evict("mid-batch")
	if err := <-done; err != nil && !errors.Is(err, ErrClosed) {
		t.Fatal(err)
	}

	want, sum := count.snapshot()
	if sum == 0 || want["gps"] == 0 {
		t.Fatalf("counting tap saw no emissions: %v", want)
	}
	checkHubEmissions(t, hub, want, sum)

	m.Close()
	want, sum = count.snapshot()
	checkHubEmissions(t, hub, want, sum)
	if n := hub.LiveCells(); n != 0 {
		t.Errorf("hub holds %d cells after every session closed", n)
	}
}

// TestHubHoldsNoClosedSessionCells: a thousand create-step-evict
// cycles leave no cell of a closed session in the hub, and the totals
// still add up.
func TestHubHoldsNoClosedSessionCells(t *testing.T) {
	hub := obs.New()
	cfg := saturatedSessionConfig(t)
	cfg.Observability = hub
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	count := &emissionCount{byNode: make(map[string]uint64)}
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("cycle-%d", i%7)
		s, err := m.GetOrCreate(id)
		if err != nil {
			t.Fatal(err)
		}
		count.watch(s)
		if _, err := s.StepN(3); err != nil {
			t.Fatal(err)
		}
		m.Evict(id)
	}
	if n := hub.LiveCells(); n != 0 {
		t.Errorf("hub holds %d cells after 1000 evicted sessions", n)
	}
	want, sum := count.snapshot()
	checkHubEmissions(t, hub, want, sum)
}

// TestShippedStepNAllocatesLikeBare: with the hub and supervision
// wired, a warmed-up session's StepN(16) allocates exactly what a bare
// session's does, plus one build of the data tree the hub's tree
// observer samples: watching adds no allocation per emission. Each
// batch ends on the sampled delivery, so the app channel's LastTree
// rebuilds that delivery's tree, and the bare session steps in
// lockstep, since a tree's size follows the receiver's GSV epochs.
func TestShippedStepNAllocatesLikeBare(t *testing.T) {
	session := func(cfg SessionConfig) *Session {
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		s, err := m.GetOrCreate("target-allocs")
		if err != nil {
			t.Fatal(err)
		}
		delivered := 0
		s.Provider().Subscribe(func(positioning.Position) { delivered++ })
		// The warm-up also settles the Go runtime's per-call-site
		// type-assertion caches, which grow at random, about one call
		// in 1024, by an allocation of their own.
		if _, err := s.StepN(8192); err != nil {
			t.Fatal(err)
		}
		// The observer samples deliveries 1, 17, 33, ...
		for delivered%16 != 1 {
			if _, err := s.StepN(1); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	stepN := func(s *Session) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := s.StepN(16); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare, shipped := session(saturatedSessionConfig(t)), session(shippedSessionConfig(t))
	app, ok := shipped.layer.ChannelInto("app", 0)
	if !ok {
		t.Fatal("no channel into app")
	}
	// Each check steps two batches (AllocsPerRun runs once to warm up),
	// so five checks see all five phases of the receiver's GSV cycle.
	for i := 0; i < 5; i++ {
		want := stepN(bare)
		got := stepN(shipped)
		tree := testing.AllocsPerRun(1, func() { app.LastTree() })
		if got != want+tree {
			t.Errorf("batch %d: shipped StepN(16) allocates %v, bare %v plus %v for the sampled tree", i, got, want, tree)
		}
	}
}
