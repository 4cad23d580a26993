package cluster

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"perpos/internal/chaos"
	"perpos/internal/obs"
)

// clusterFixture is the shared e2e scaffold: N nodes, a router over
// them, and a target population tracked and pumped past its first
// checkpoints.
type clusterFixture struct {
	nodes   map[string]*Node
	order   []string
	router  *Router
	hub     *obs.Metrics
	targets []string
}

func startCluster(t *testing.T, pol Policy, nodeIDs []string, targetCount int, dialer Dialer) *clusterFixture {
	t.Helper()
	f := &clusterFixture{nodes: make(map[string]*Node), order: nodeIDs, hub: obs.New()}
	f.router = NewRouter(RouterConfig{Policy: pol, Metrics: f.hub, Dialer: dialer, Logf: t.Logf})
	t.Cleanup(f.router.Close)
	for _, id := range nodeIDs {
		n := startTestNode(t, id, 4)
		f.nodes[id] = n
		if err := f.router.Join(n.Info()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < targetCount; i++ {
		target := fmt.Sprintf("tag-%02d", i)
		f.targets = append(f.targets, target)
		if err := f.router.Track(target); err != nil {
			t.Fatalf("track %s: %v", target, err)
		}
	}
	return f
}

// pumpAll advances every live node's sessions deterministically.
func (f *clusterFixture) pumpAll(t *testing.T, rounds int) {
	t.Helper()
	for _, id := range f.order {
		n := f.nodes[id]
		if n.Down() {
			continue
		}
		if err := n.Pump(rounds); err != nil && err != ErrNodeDown {
			t.Fatal(err)
		}
	}
}

// positions queries every target, requiring a fresh fix.
func (f *clusterFixture) positions(t *testing.T) map[string]PositionResult {
	t.Helper()
	out := make(map[string]PositionResult, len(f.targets))
	for _, target := range f.targets {
		res, err := f.router.Position(target)
		if err != nil {
			t.Fatalf("position %s: %v", target, err)
		}
		if !res.HasFix {
			t.Fatalf("position %s: no fix", target)
		}
		out[target] = res
	}
	return out
}

// routesSettledOff reports whether every route is off the given node
// with no handoff in flight.
func (f *clusterFixture) routesSettledOff(dead string) bool {
	if f.router.InFlight() != 0 {
		return false
	}
	for _, target := range f.targets {
		node, inFlight, ok := f.router.NodeOf(target)
		if !ok || inFlight || node == dead {
			return false
		}
	}
	return true
}

// TestClusterNodeDeathFailover is the acceptance scenario: a 3-node
// cluster tracking 60 targets survives a hard node kill. Every session
// from the dead node resumes on a survivor from its last durable
// checkpoint — Kalman state bit-exact — zero targets are lost, and the
// post-resurrection positions stay within a bounded gap of the
// pre-kill track.
func TestClusterNodeDeathFailover(t *testing.T) {
	f := startCluster(t, fastPolicy(), []string{"n1", "n2", "n3"}, 60, nil)
	f.router.Start()

	// 18 rounds with CheckpointEvery=4: every session has durable state
	// from round 16, two samples behind the live filter at kill time.
	f.pumpAll(t, 18)
	preKill := f.positions(t)

	// The victim is the node carrying the most sessions — the worst case.
	victimID := ""
	for id, n := range f.nodes {
		if victimID == "" || n.Sessions() > f.nodes[victimID].Sessions() {
			victimID = id
		}
	}
	victim := f.nodes[victimID]
	var moved, unmoved []string
	homeBefore := make(map[string]string)
	for _, target := range f.targets {
		node, _, _ := f.router.NodeOf(target)
		homeBefore[target] = node
		if node == victimID {
			moved = append(moved, target)
		} else {
			unmoved = append(unmoved, target)
		}
	}
	if len(moved) == 0 || len(unmoved) == 0 {
		t.Fatalf("degenerate split: victim %s owns %d/%d targets", victimID, len(moved), len(f.targets))
	}
	t.Logf("killing %s (%d sessions)", victimID, len(moved))
	victim.Kill(nil)

	waitFor(t, 10*time.Second, "failover to settle", func() bool {
		return f.routesSettledOff(victimID)
	})

	// Zero targets lost: every target routed, every session live on a
	// survivor.
	if got := len(f.router.Targets()); got != len(f.targets) {
		t.Fatalf("targets after failover = %d, want %d", got, len(f.targets))
	}
	liveSessions := 0
	for id, n := range f.nodes {
		if id != victimID {
			liveSessions += n.Sessions()
		}
	}
	if liveSessions != len(f.targets) {
		t.Fatalf("live sessions after failover = %d, want %d", liveSessions, len(f.targets))
	}
	// Unmoved targets never changed homes.
	for _, target := range unmoved {
		node, _, _ := f.router.NodeOf(target)
		if node != homeBefore[target] {
			t.Errorf("unmoved target %s changed home %s→%s", target, homeBefore[target], node)
		}
	}

	// Bit-exact rehydration: before any new sample, each resurrected
	// session's live Kalman state equals the durable record it was
	// resumed from.
	for _, target := range moved {
		node, _, _ := f.router.NodeOf(target)
		survivor := f.nodes[node]
		sess, ok := survivor.mgr.Get(target)
		if !ok {
			t.Fatalf("moved target %s has no session on %s", target, node)
		}
		durable, err := survivor.store.Load(target)
		if err != nil {
			t.Fatalf("moved target %s has no durable state on %s: %v", target, node, err)
		}
		live, err := sess.Graph().SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kalmanComponent(t, durable.Graph), kalmanComponent(t, live)) {
			t.Fatalf("target %s: kalman state not bit-exact after resurrection", target)
		}
	}

	if got := f.hub.ClusterFailovers.Value(); got != 1 {
		t.Errorf("ClusterFailovers = %d, want 1", got)
	}
	if got := f.hub.ClusterResurrected.Value(); got != uint64(len(moved)) {
		t.Errorf("ClusterResurrected = %d, want %d", got, len(moved))
	}

	// Bounded gap: resurrected sessions pick the track back up near
	// where the dead node left it. The checkpoint lag is 2 samples
	// (~3m at walking speed); 50m leaves room for GPS noise.
	f.pumpAll(t, 4)
	for _, target := range moved {
		res, err := f.router.Position(target)
		if err != nil {
			t.Fatalf("position %s after failover: %v", target, err)
		}
		if !res.HasFix || res.Stale {
			t.Fatalf("position %s after failover = %+v, want fresh fix", target, res)
		}
		if d := preKill[target].Pos.DistanceTo(res.Pos); d > 50 {
			t.Errorf("target %s: position gap %.1fm across failover", target, d)
		}
	}
}

// TestClusterJoinRebalance: a node joining a loaded cluster triggers a
// rebalance that moves exactly the minimal hash range — every moved
// target lands on the joiner, and unmoved sessions are untouched (same
// live session object, no pause, no drop).
func TestClusterJoinRebalance(t *testing.T) {
	f := startCluster(t, fastPolicy(), []string{"n1", "n2"}, 40, nil)
	f.pumpAll(t, 10)
	f.positions(t)

	homeBefore := make(map[string]string)
	sessBefore := make(map[string]any)
	for _, target := range f.targets {
		node, _, _ := f.router.NodeOf(target)
		homeBefore[target] = node
		s, ok := f.nodes[node].mgr.Get(target)
		if !ok {
			t.Fatalf("no session for %s on %s", target, node)
		}
		sessBefore[target] = s
	}

	joiner := startTestNode(t, "n3", 4)
	f.nodes["n3"] = joiner
	f.order = append(f.order, "n3")
	if err := f.router.Join(joiner.Info()); err != nil {
		t.Fatal(err)
	}
	if got := f.router.InFlight(); got != 0 {
		t.Fatalf("in-flight after Join returned = %d, want 0", got)
	}

	moved := 0
	for _, target := range f.targets {
		node, _, ok := f.router.NodeOf(target)
		if !ok {
			t.Fatalf("target %s unrouted after join", target)
		}
		if node != homeBefore[target] {
			// The consistent-hashing guarantee: keys move only TO the
			// new member.
			if node != "n3" {
				t.Errorf("target %s moved %s→%s, not to the joiner", target, homeBefore[target], node)
			}
			moved++
			continue
		}
		// Unmoved: the very same session object is still live — it was
		// never paused, evicted or recreated, so no sample was dropped.
		s, ok := f.nodes[node].mgr.Get(target)
		if !ok || any(s) != sessBefore[target] {
			t.Errorf("unmoved target %s was disturbed by the rebalance", target)
		}
	}
	if moved == 0 {
		t.Fatal("join moved no targets")
	}
	if got := joiner.Sessions(); got != moved {
		t.Errorf("joiner sessions = %d, want %d", got, moved)
	}
	if got := f.hub.ClusterRebalanced.Value(); got != uint64(moved) {
		t.Errorf("ClusterRebalanced = %d, want %d", got, moved)
	}
	if got := f.hub.ClusterHandoffs.Value(); got != uint64(moved) {
		t.Errorf("ClusterHandoffs = %d, want %d", got, moved)
	}

	// The whole population keeps producing fresh fixes.
	f.pumpAll(t, 4)
	for _, res := range f.positions(t) {
		if res.Stale {
			t.Fatalf("stale answer after a clean rebalance: %+v", res)
		}
	}
}

// TestClusterPartitionQuarantineRecovery: a network partition (not a
// crash) trips the node's breaker and the router serves cached
// positions marked Stale — never an error — until the partition heals
// before the death grace period; then fresh answers resume and no
// session has moved.
func TestClusterPartitionQuarantineRecovery(t *testing.T) {
	link := chaos.NewLink()
	var wrapAddr string
	var mu sync.Mutex
	dialer := func(addr string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		wrapped := addr == wrapAddr
		mu.Unlock()
		if wrapped {
			return link.Dial(func() (net.Conn, error) {
				return net.DialTimeout("tcp", addr, timeout)
			})
		}
		return net.DialTimeout("tcp", addr, timeout)
	}

	pol := fastPolicy()
	pol.DeathAfter = 10 * time.Second // partitions are not deaths here
	f := &clusterFixture{nodes: make(map[string]*Node), order: []string{"n1", "n2"}, hub: obs.New()}
	f.router = NewRouter(RouterConfig{Policy: pol, Metrics: f.hub, Dialer: dialer, Logf: t.Logf})
	t.Cleanup(f.router.Close)
	for _, id := range f.order {
		n := startTestNode(t, id, 4)
		f.nodes[id] = n
		if id == "n2" {
			// Wrap BEFORE the router's first dial so every connection to
			// n2 — including the persistent RPC conn — runs through the
			// fault link.
			mu.Lock()
			wrapAddr = n.Addr()
			mu.Unlock()
		}
		if err := f.router.Join(n.Info()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		target := fmt.Sprintf("tag-%02d", i)
		f.targets = append(f.targets, target)
		if err := f.router.Track(target); err != nil {
			t.Fatalf("track %s: %v", target, err)
		}
	}
	f.router.Start()
	f.pumpAll(t, 8)
	pre := f.positions(t)

	// A target homed on the node about to be partitioned.
	victimTarget := ""
	for _, target := range f.targets {
		if node, _, _ := f.router.NodeOf(target); node == "n2" {
			victimTarget = target
			break
		}
	}
	if victimTarget == "" {
		t.Fatal("no target routed to n2")
	}

	link.Kill(nil)
	waitFor(t, 5*time.Second, "n2 quarantine", func() bool {
		for _, m := range f.router.Members() {
			if m.ID == "n2" {
				return m.Down
			}
		}
		return false
	})

	// Degradation contract: cached position, marked stale, no error.
	res, err := f.router.Position(victimTarget)
	if err != nil {
		t.Fatalf("Position during partition = %v, want degraded answer", err)
	}
	if !res.Stale || !res.HasFix {
		t.Fatalf("Position during partition = %+v, want stale cached fix", res)
	}
	if res.Pos != pre[victimTarget].Pos {
		t.Errorf("stale answer %+v is not the cached position %+v", res.Pos, pre[victimTarget].Pos)
	}
	if got := f.hub.ClusterStaleServed.Value(); got == 0 {
		t.Error("ClusterStaleServed = 0, want > 0")
	}

	link.Heal()
	waitFor(t, 5*time.Second, "n2 recovery", func() bool {
		for _, m := range f.router.Members() {
			if m.ID == "n2" {
				return !m.Down
			}
		}
		return false
	})
	res, err = f.router.Position(victimTarget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stale || !res.HasFix {
		t.Fatalf("Position after heal = %+v, want fresh fix", res)
	}

	// A quarantine that healed in time moved nothing and killed nobody.
	if got := f.hub.ClusterFailovers.Value(); got != 0 {
		t.Errorf("ClusterFailovers = %d, want 0", got)
	}
	if node, _, _ := f.router.NodeOf(victimTarget); node != "n2" {
		t.Errorf("target %s moved to %s during a transient partition", victimTarget, node)
	}
}

// TestClusterSlowPeerDegradation: while a slow joiner drags handoffs
// out, queries against mid-handoff targets serve the cached position
// marked Stale — the rebalance is invisible to callers except for
// staleness, never an error.
func TestClusterSlowPeerDegradation(t *testing.T) {
	link := chaos.NewLink()
	link.SetDelay(30 * time.Millisecond)
	var wrapAddr string
	var mu sync.Mutex
	dialer := func(addr string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		wrapped := addr == wrapAddr
		mu.Unlock()
		if wrapped {
			return link.Dial(func() (net.Conn, error) {
				return net.DialTimeout("tcp", addr, timeout)
			})
		}
		return net.DialTimeout("tcp", addr, timeout)
	}

	f := startCluster(t, fastPolicy(), []string{"n1", "n2"}, 30, dialer)
	f.pumpAll(t, 10)
	f.positions(t) // fill the degradation cache

	joiner := startTestNode(t, "n3", 4)
	f.nodes["n3"] = joiner
	mu.Lock()
	wrapAddr = joiner.Addr()
	mu.Unlock()

	done := make(chan error, 1)
	go func() { done <- f.router.Join(joiner.Info()) }()

	staleSeen := 0
	for joining := true; joining; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Join: %v", err)
			}
			joining = false
		default:
			for _, target := range f.targets {
				res, err := f.router.Position(target)
				if err != nil {
					t.Fatalf("Position during slow rebalance = %v, want degraded answer", err)
				}
				if res.Stale {
					staleSeen++
				}
			}
			time.Sleep(time.Millisecond)
		}
	}
	if staleSeen == 0 {
		t.Error("no stale answers observed during a slow rebalance — degradation path never exercised")
	}
	if got := f.router.InFlight(); got != 0 {
		t.Errorf("in-flight after join = %d, want 0", got)
	}
	moved := 0
	for _, target := range f.targets {
		if node, _, _ := f.router.NodeOf(target); node == "n3" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("slow join moved no targets")
	}
	t.Logf("slow join: %d targets moved, %d stale answers served", moved, staleSeen)
}
