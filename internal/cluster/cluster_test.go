package cluster

import (
	"bytes"
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perpos/internal/catalog"
	"perpos/internal/chaos"
	"perpos/internal/checkpoint"
	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/health"
	"perpos/internal/obs"
	"perpos/internal/positioning"
	"perpos/internal/runtime"
	"perpos/internal/trace"
)

var testOrigin = geo.Point{Lat: 56.1629, Lon: 10.2039}

// seedFrom derives a deterministic per-target seed.
func seedFrom(id string) int64 {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int64(h.Sum32() & 0x7fffffff)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// kalmanSessionConfig is the cluster test fixture: the catalog's
// GPS→Kalman blueprint with a per-target simulated receiver. The
// Kalman filter carries covariance state, so a handoff that is not
// bit-exact shows up as diverging filter output.
func kalmanSessionConfig(t testing.TB) runtime.SessionConfig {
	t.Helper()
	bp, err := catalog.KalmanBlueprint(geo.NewProjection(testOrigin), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return runtime.SessionConfig{
		Blueprint: bp,
		Overrides: func(sessionID string) []core.InstantiateOption {
			seed := seedFrom(sessionID)
			tr := trace.OutdoorTrack(testOrigin, seed, 2, 100, 1.4, time.Second)
			return []core.InstantiateOption{
				core.WithComponentOverride("gps", func(cid string) core.Component {
					return gps.NewReceiver(cid, tr, gps.Config{Seed: seed, ColdStart: time.Second, Loop: true})
				}),
			}
		},
		Provider: positioning.ProviderInfo{Technology: "gps", TypicalAccuracy: 5},
		History:  16,
	}
}

// fastPolicy shrinks every cluster timescale so chaos e2e tests settle
// in tens of milliseconds.
func fastPolicy() Policy {
	return Policy{
		Replicas:             64,
		ProbeInterval:        10 * time.Millisecond,
		MaxConsecutiveErrors: 2,
		DeathAfter:           60 * time.Millisecond,
		HandoffConcurrency:   4,
		DialTimeout:          200 * time.Millisecond,
		CallTimeout:          2 * time.Second,
		Retries:              -1,
		RetryBackoff:         2 * time.Millisecond,
	}
}

// startTestNode starts a node over a t.TempDir() store and registers
// cleanup. Killed nodes are left alone — Kill already closed the store.
func startTestNode(t testing.TB, id string, ckptEvery int) *Node {
	t.Helper()
	n, err := StartNode(NodeConfig{
		ID:              id,
		Dir:             t.TempDir(),
		Session:         kalmanSessionConfig(t),
		CheckpointEvery: ckptEvery,
		AdoptLockWait:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !n.Down() {
			n.Close()
		}
	})
	return n
}

// kalmanComponent extracts the kalman node's marshalled component
// state — the bytes the bit-exactness assertions compare.
func kalmanComponent(t testing.TB, gs core.GraphState) []byte {
	t.Helper()
	for _, ns := range gs.Nodes {
		if ns.ID == "kalman" {
			return ns.Component
		}
	}
	t.Fatal("graph state has no kalman node")
	return nil
}

func TestTrackAndQuery(t *testing.T) {
	hub := obs.New()
	n1 := startTestNode(t, "n1", 4)
	n2 := startTestNode(t, "n2", 4)
	r := NewRouter(RouterConfig{Policy: fastPolicy(), Metrics: hub, Logf: t.Logf})
	defer r.Close()
	if err := r.Join(n1.Info()); err != nil {
		t.Fatal(err)
	}
	if err := r.Join(n2.Info()); err != nil {
		t.Fatal(err)
	}

	targets := []string{"tag-1", "tag-2", "tag-3", "tag-4", "tag-5", "tag-6"}
	for _, target := range targets {
		if err := r.Track(target); err != nil {
			t.Fatalf("track %s: %v", target, err)
		}
	}
	if n1.Sessions()+n2.Sessions() != len(targets) {
		t.Fatalf("sessions = %d+%d, want %d", n1.Sessions(), n2.Sessions(), len(targets))
	}
	// Tracking is idempotent.
	if err := r.Track("tag-1"); err != nil {
		t.Fatal(err)
	}
	if got := n1.Sessions() + n2.Sessions(); got != len(targets) {
		t.Fatalf("sessions after re-track = %d, want %d", got, len(targets))
	}

	// Before any sample: tracked, no fix, no error.
	res, err := r.Position("tag-1")
	if err != nil {
		t.Fatal(err)
	}
	if res.HasFix || res.Stale {
		t.Fatalf("pre-pump position = %+v, want no fix, not stale", res)
	}

	for _, n := range []*Node{n1, n2} {
		if err := n.Pump(6); err != nil {
			t.Fatal(err)
		}
	}
	for _, target := range targets {
		res, err := r.Position(target)
		if err != nil {
			t.Fatalf("position %s: %v", target, err)
		}
		if !res.HasFix {
			t.Fatalf("position %s: no fix after pumping", target)
		}
		if res.Stale {
			t.Fatalf("position %s: stale answer from a healthy cluster", target)
		}
		node, inFlight, ok := r.NodeOf(target)
		if !ok || inFlight {
			t.Fatalf("NodeOf(%s) = %q,%v,%v", target, node, inFlight, ok)
		}
		if node != res.Node {
			t.Fatalf("NodeOf(%s) = %s but answer came from %s", target, node, res.Node)
		}
	}

	if _, err := r.Position("nobody"); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("Position(unknown) = %v, want ErrUnknownTarget", err)
	}
	if got := len(r.Targets()); got != len(targets) {
		t.Fatalf("Targets() = %d, want %d", got, len(targets))
	}
}

// TestPumpCountsErrors: a session whose source fails every step, and a
// healthy session whose periodic checkpoints fail, are skipped by the
// pump but counted in the hub's ClusterPumpErrors.
func TestPumpCountsErrors(t *testing.T) {
	hub := obs.New()
	cfg := kalmanSessionConfig(t)
	cfg.Observability = hub
	overrides := cfg.Overrides
	cfg.Overrides = func(sessionID string) []core.InstantiateOption {
		opts := overrides(sessionID)
		if sessionID != "broken" {
			return opts
		}
		return append(opts, core.WithComponentOverride("gps", func(cid string) core.Component {
			tr := trace.OutdoorTrack(testOrigin, 1, 2, 100, 1.4, time.Second)
			return chaos.WrapSource(gps.NewReceiver(cid, tr, gps.Config{Seed: 1, Loop: true}),
				chaos.WithErrorEvery(1))
		}))
	}
	n, err := StartNode(NodeConfig{ID: "n1", Dir: t.TempDir(), Session: cfg, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for _, id := range []string{"broken", "healthy"} {
		if _, err := n.mgr.GetOrCreate(id); err != nil {
			t.Fatal(err)
		}
	}

	if err := n.Pump(4); err != nil {
		t.Fatal(err)
	}
	if got := hub.ClusterPumpErrors.Value(); got != 4 {
		t.Fatalf("after 4 rounds with one failing source: pump errors = %d, want 4", got)
	}

	// With the store gone, the healthy session's checkpoints (rounds 6
	// and 8) fail too.
	if err := n.store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Pump(4); err != nil {
		t.Fatal(err)
	}
	if got := hub.ClusterPumpErrors.Value(); got != 4+4+2 {
		t.Fatalf("after 4 more rounds without a store: pump errors = %d, want 10", got)
	}
}

// erroringParserNode starts a node whose sessions run a supervised
// pipeline with a parser that fails every sample.
func erroringParserNode(t *testing.T) *Node {
	t.Helper()
	cfg := kalmanSessionConfig(t)
	cfg.Health = &health.Policy{MaxConsecutiveErrors: 3, ProbeInterval: time.Hour, Sweep: time.Hour}
	overrides := cfg.Overrides
	cfg.Overrides = func(sessionID string) []core.InstantiateOption {
		return append(overrides(sessionID), core.WithComponentOverride("parser", func(cid string) core.Component {
			return chaos.WrapComponent(gps.NewParser(cid), chaos.WithErrorEvery(1))
		}))
	}
	n, err := StartNode(NodeConfig{ID: "n1", Dir: t.TempDir(), Session: cfg, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// checkParserTripped fails unless the session's parser breaker tripped
// exactly once and its provider reports TEMPORARILY_UNAVAILABLE.
func checkParserTripped(t *testing.T, s *runtime.Session) {
	t.Helper()
	h, ok := s.Monitor().Health("parser")
	if !ok || h.Trips != 1 || h.State != health.StateDown {
		t.Fatalf("parser health = %+v, want one trip and down", h)
	}
	if got := s.Provider().Availability(); got != positioning.TemporarilyUnavailable {
		t.Errorf("provider availability = %v, want TEMPORARILY_UNAVAILABLE", got)
	}
}

// TestPumpErrorsTripBreaker: the pump steps sessions with StepN(1) and
// sweeps each session's supervisor once per round, so a supervised
// session's failing component trips its breaker and gates its provider
// with no sweep from outside — the errors reach health, not only
// ClusterPumpErrors.
func TestPumpErrorsTripBreaker(t *testing.T) {
	n := erroringParserNode(t)
	s, err := n.mgr.GetOrCreate("broken")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Pump(4); err != nil {
		t.Fatal(err)
	}
	checkParserTripped(t, s)
}

// TestConcurrentPumpsSweepOneAtATime: two goroutines pumping the same
// node trip the breaker as one would, and never sweep one supervisor
// from both at once (Sweep is not re-entrant). A sweep hook that holds
// each sweep open for a moment sees any overlap.
func TestConcurrentPumpsSweepOneAtATime(t *testing.T) {
	n := erroringParserNode(t)
	s, err := n.mgr.GetOrCreate("broken")
	if err != nil {
		t.Fatal(err)
	}
	var inSweep, overlaps atomic.Int32
	s.Supervisor().OnSweep(func(time.Time) {
		if inSweep.Add(1) > 1 {
			overlaps.Add(1)
		}
		time.Sleep(200 * time.Microsecond)
		inSweep.Add(-1)
	})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := n.Pump(8); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := overlaps.Load(); got != 0 {
		t.Errorf("%d sweeps of one supervisor overlapped another", got)
	}
	checkParserTripped(t, s)
}

func TestJoinDuplicateAndTrackWithoutNodes(t *testing.T) {
	r := NewRouter(RouterConfig{Policy: fastPolicy()})
	defer r.Close()
	if err := r.Track("t"); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Track with no nodes = %v, want ErrNoNodes", err)
	}
	n1 := startTestNode(t, "n1", 4)
	if err := r.Join(n1.Info()); err != nil {
		t.Fatal(err)
	}
	if err := r.Join(n1.Info()); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("duplicate Join = %v, want ErrDuplicateNode", err)
	}
}

// TestMoveHandoffBitExact moves one live session between nodes and
// verifies the full handoff contract: the session leaves the source,
// resumes on the destination with bit-identical Kalman filter state,
// the source's files are purged, and the counters record one handoff.
func TestMoveHandoffBitExact(t *testing.T) {
	hub := obs.New()
	n1 := startTestNode(t, "n1", 4)
	n2 := startTestNode(t, "n2", 4)
	nodes := map[string]*Node{"n1": n1, "n2": n2}
	r := NewRouter(RouterConfig{Policy: fastPolicy(), Metrics: hub, Logf: t.Logf})
	defer r.Close()
	for _, n := range nodes {
		if err := r.Join(n.Info()); err != nil {
			t.Fatal(err)
		}
	}
	const target = "moving-tag"
	if err := r.Track(target); err != nil {
		t.Fatal(err)
	}
	srcID, _, _ := r.NodeOf(target)
	src := nodes[srcID]
	dstID := "n1"
	if srcID == "n1" {
		dstID = "n2"
	}
	dst := nodes[dstID]

	// Warm the filter past cold start and through a few checkpoints.
	if err := src.Pump(10); err != nil {
		t.Fatal(err)
	}
	before, err := r.Position(target)
	if err != nil {
		t.Fatal(err)
	}
	if !before.HasFix {
		t.Fatal("no fix before handoff")
	}

	if err := r.Move(target, dstID); err != nil {
		t.Fatalf("Move: %v", err)
	}

	// Route flipped; source no longer runs the session.
	node, inFlight, ok := r.NodeOf(target)
	if !ok || inFlight || node != dstID {
		t.Fatalf("route after move = %q,%v,%v; want %s settled", node, inFlight, ok, dstID)
	}
	if _, ok := src.mgr.Get(target); ok {
		t.Error("session still live on the source after handoff")
	}
	sess, ok := dst.mgr.Get(target)
	if !ok {
		t.Fatal("session missing on the destination")
	}

	// Bit-exact rehydration: the destination's live graph state equals
	// the shipped durable record, byte for byte, before any new sample.
	shipped, err := dst.store.Load(target)
	if err != nil {
		t.Fatal(err)
	}
	live, err := sess.Graph().SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kalmanComponent(t, shipped.Graph), kalmanComponent(t, live)) {
		t.Errorf("kalman state not bit-exact after handoff:\nshipped %s\nlive    %s",
			kalmanComponent(t, shipped.Graph), kalmanComponent(t, live))
	}

	// The source's copy was purged after the import ack.
	if _, err := src.store.Load(target); !errors.Is(err, checkpoint.ErrNoState) {
		t.Errorf("source Load after purge = %v, want ErrNoState", err)
	}

	// The moved session keeps producing positions near where it left off.
	if err := dst.Pump(3); err != nil {
		t.Fatal(err)
	}
	after, err := r.Position(target)
	if err != nil {
		t.Fatal(err)
	}
	if !after.HasFix || after.Stale {
		t.Fatalf("post-move position = %+v, want fresh fix", after)
	}
	if d := before.Pos.DistanceTo(after.Pos); d > 50 {
		t.Errorf("position jumped %.1fm across the handoff", d)
	}

	if got := hub.ClusterHandoffs.Value(); got != 1 {
		t.Errorf("ClusterHandoffs = %d, want 1", got)
	}
	if got := hub.ClusterHandoffFailed.Value(); got != 0 {
		t.Errorf("ClusterHandoffFailed = %d, want 0", got)
	}
}

// TestMoveImportFailureRevivesOnSource: the destination dies before the
// import, so the handoff must roll back — the session revives on the
// source from its detached-but-unpurged files and the route never
// flips.
func TestMoveImportFailureRevivesOnSource(t *testing.T) {
	hub := obs.New()
	n1 := startTestNode(t, "n1", 4)
	n2 := startTestNode(t, "n2", 4)
	nodes := map[string]*Node{"n1": n1, "n2": n2}
	r := NewRouter(RouterConfig{Policy: fastPolicy(), Metrics: hub, Logf: t.Logf})
	defer r.Close()
	for _, n := range nodes {
		if err := r.Join(n.Info()); err != nil {
			t.Fatal(err)
		}
	}
	const target = "sticky-tag"
	if err := r.Track(target); err != nil {
		t.Fatal(err)
	}
	srcID, _, _ := r.NodeOf(target)
	src := nodes[srcID]
	dstID := "n1"
	if srcID == "n1" {
		dstID = "n2"
	}
	if err := src.Pump(10); err != nil {
		t.Fatal(err)
	}

	nodes[dstID].Kill(nil) // hard death between route decision and import

	if err := r.Move(target, dstID); err == nil {
		t.Fatal("Move to a dead node succeeded, want error")
	}
	node, inFlight, ok := r.NodeOf(target)
	if !ok || inFlight || node != srcID {
		t.Fatalf("route after failed move = %q,%v,%v; want %s settled", node, inFlight, ok, srcID)
	}
	sess, ok := src.mgr.Get(target)
	if !ok {
		t.Fatal("session not revived on the source")
	}
	if _, err := sess.StepN(1); err != nil {
		t.Fatalf("revived session cannot step: %v", err)
	}
	if got := hub.ClusterHandoffFailed.Value(); got != 1 {
		t.Errorf("ClusterHandoffFailed = %d, want 1", got)
	}
	if got := hub.ClusterHandoffs.Value(); got != 0 {
		t.Errorf("ClusterHandoffs = %d, want 0", got)
	}
}
