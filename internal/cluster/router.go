package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"perpos/internal/core"
	"perpos/internal/health"
	"perpos/internal/obs"
	"perpos/internal/positioning"
)

// NodeInfo describes one member to the router: identity, RPC address,
// and the checkpoint directory survivors adopt if the node dies.
type NodeInfo struct {
	ID   string
	Addr string
	Dir  string
}

// RouterConfig configures a Router.
type RouterConfig struct {
	Policy Policy
	// Metrics, when set, receives handoff/failover counters and
	// per-node gauges.
	Metrics *obs.Metrics
	// Dialer substitutes the TCP dialer (chaos fault injection).
	Dialer Dialer
	// Logf, when set, receives one line per membership/handoff/failover
	// event — the demo transcript.
	Logf func(format string, args ...any)
}

// member is the router's record of one node.
type member struct {
	info NodeInfo
	cli  *rpcClient
	// dead is set when the node is declared dead (quarantine outlived
	// DeathAfter); its ring range is gone and its sessions are being
	// failed over.
	dead bool
}

// route is the router's record of one tracked target.
type route struct {
	node string
	// inFlight marks a handoff or failover in progress: queries serve
	// the cached position until the route flips.
	inFlight bool
	// last/hasLast cache the most recent successfully queried position
	// — the degradation answer while the owner is unreachable.
	last    positioning.Position
	hasLast bool
}

// Router is the cluster front door: it owns the consistent-hash ring,
// per-node breakers, the target→node routing table and the last-known
// position cache, and it drives handoffs, failover and rebalancing.
// All methods are safe for concurrent use.
type Router struct {
	pol     Policy
	hub     *obs.Metrics
	dialer  Dialer
	logf    func(string, ...any)
	monitor *health.Monitor

	// opMu serializes topology operations — join/leave rebalancing,
	// failover, explicit moves — so at most one redistribution mutates
	// routes at a time. Queries and tracking never take it.
	opMu sync.Mutex

	mu      sync.Mutex
	ring    *ring
	members map[string]*member
	routes  map[string]*route

	// sweeper is Start's health sweep job; closed refuses a later Start.
	sweeper *core.Job
	closed  bool
}

// NewRouter returns a router with no members. Call Start to run the
// health sweep; Join nodes before or after.
func NewRouter(cfg RouterConfig) *Router {
	pol := cfg.Policy.withDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Router{
		pol:    pol,
		hub:    cfg.Metrics,
		dialer: cfg.Dialer,
		logf:   logf,
		monitor: health.NewMonitor(health.Policy{
			MaxConsecutiveErrors: pol.MaxConsecutiveErrors,
			ProbeInterval:        pol.ProbeInterval,
			RecoveryEmissions:    1,
			Sweep:                pol.ProbeInterval,
		}),
		ring:    newRing(pol.Replicas),
		members: make(map[string]*member),
		routes:  make(map[string]*route),
	}
}

// Start sweeps every ProbeInterval: probe every member, advance the
// breakers, fail over members dead past the grace window.
func (r *Router) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sweeper != nil || r.closed {
		return
	}
	origin, period := time.Now(), r.pol.ProbeInterval
	r.sweeper = core.Every(context.Background(), origin.Add(period), func(now time.Time) (time.Time, bool) {
		r.sweep(now)
		return core.NextDue(origin, period, now), true
	})
}

// Close stops the sweeps and drops every node connection. Nodes
// themselves are closed by their owners.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	sweeper := r.sweeper
	clients := make([]*rpcClient, 0, len(r.members))
	for _, m := range r.members {
		clients = append(clients, m.cli)
	}
	r.mu.Unlock()
	sweeper.Stop()
	for _, c := range clients {
		c.close()
	}
}

// Join adds a member and rebalances: targets whose ring owner becomes
// the new node — and only those, the consistent-hashing guarantee —
// are handed off from their current homes with bounded concurrency.
// Join returns after the rebalance settles; targets whose handoff
// failed stay (revived) on their old node.
func (r *Router) Join(info NodeInfo) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()

	r.mu.Lock()
	if _, ok := r.members[info.ID]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicateNode, info.ID)
	}
	m := &member{info: info, cli: newRPCClient(info.ID, info.Addr, r.pol, r.dialer)}
	r.members[info.ID] = m
	r.ring.add(info.ID)
	// Collect the minimal range: live-routed targets the ring now
	// assigns to the newcomer.
	type move struct {
		target string
		from   *member
	}
	var moves []move
	for target, rt := range r.routes {
		if rt.inFlight || rt.node == info.ID {
			continue
		}
		owner, ok := r.ring.owner(target)
		if !ok || owner != info.ID {
			continue
		}
		from := r.members[rt.node]
		if from == nil || from.dead {
			continue
		}
		moves = append(moves, move{target: target, from: from})
	}
	r.mu.Unlock()

	r.monitor.Watch(info.ID)
	r.setNodeUp(info.ID, true)
	r.logf("cluster: node %s joined (%s), rebalancing %d targets", info.ID, info.Addr, len(moves))

	if len(moves) == 0 {
		return nil
	}
	sem := make(chan struct{}, r.pol.HandoffConcurrency)
	var wg sync.WaitGroup
	var mu sync.Mutex
	moved := 0
	for _, mv := range moves {
		wg.Add(1)
		sem <- struct{}{}
		go func(mv move) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := r.handoff(mv.target, mv.from, m); err != nil {
				r.logf("cluster: rebalance %s %s→%s failed: %v", mv.target, mv.from.info.ID, info.ID, err)
				return
			}
			if r.hub != nil {
				r.hub.ClusterRebalanced.Inc()
			}
			mu.Lock()
			moved++
			mu.Unlock()
		}(mv)
	}
	wg.Wait()
	r.logf("cluster: rebalance to %s done: %d/%d targets moved", info.ID, moved, len(moves))
	return nil
}

// Track starts tracking a target: the ring picks its home node and the
// node instantiates its session.
func (r *Router) Track(target string) error {
	r.mu.Lock()
	if _, ok := r.routes[target]; ok {
		r.mu.Unlock()
		return nil
	}
	owner, ok := r.ring.owner(target)
	if !ok {
		r.mu.Unlock()
		return ErrNoNodes
	}
	m := r.members[owner]
	if m == nil || m.dead {
		r.mu.Unlock()
		return ErrNoNodes
	}
	r.mu.Unlock()

	if _, err := m.cli.call(request{Op: opTrack, Target: target}); err != nil {
		r.noteResult(owner, err)
		return err
	}
	r.noteResult(owner, nil)

	r.mu.Lock()
	if _, ok := r.routes[target]; !ok {
		r.routes[target] = &route{node: owner}
		r.bumpNodeSessions(owner, +1)
	}
	r.mu.Unlock()
	return nil
}

// PositionResult is one Position answer.
type PositionResult struct {
	// Pos is the position; Pos.Time.IsZero() (with HasFix false) means
	// the target has produced no fix yet.
	Pos positioning.Position
	// HasFix reports whether Pos is meaningful.
	HasFix bool
	// Stale marks a degraded answer served from the router's cache
	// while the owner was quarantined, dead or mid-handoff.
	Stale bool
	// Node is the target's current home.
	Node string
}

// Position answers a position query. The degradation contract: if the
// owning node is quarantined, dead, or the target is mid-handoff, the
// last known position is returned marked Stale — never an error. An
// error means only that the target itself is unknown.
func (r *Router) Position(target string) (PositionResult, error) {
	r.mu.Lock()
	rt, ok := r.routes[target]
	if !ok {
		r.mu.Unlock()
		return PositionResult{}, fmt.Errorf("%w: %s", ErrUnknownTarget, target)
	}
	node := rt.node
	m := r.members[node]
	degraded := rt.inFlight || m == nil || m.dead
	cached := PositionResult{Pos: rt.last, HasFix: rt.hasLast, Stale: true, Node: node}
	var cli *rpcClient
	if m != nil {
		cli = m.cli
	}
	r.mu.Unlock()

	if !degraded {
		if h, ok := r.monitor.Health(node); ok && h.State == health.StateDown {
			degraded = true
		}
	}
	if degraded || cli == nil {
		r.noteStale()
		return cached, nil
	}

	resp, err := cli.call(request{Op: opQuery, Target: target})
	if err != nil {
		// Transport failures feed the breaker (the error streak is how
		// a dying node trips between probes); either way the answer is
		// the cache, not the error.
		if _, ok := err.(*RemoteError); !ok {
			r.noteResult(node, err)
		}
		r.noteStale()
		return cached, nil
	}
	r.noteResult(node, nil)
	if resp.Pos == nil {
		return PositionResult{Node: node}, nil // tracked, no fix yet
	}
	r.mu.Lock()
	if cur, ok := r.routes[target]; ok {
		cur.last = *resp.Pos
		cur.hasLast = true
	}
	r.mu.Unlock()
	return PositionResult{Pos: *resp.Pos, HasFix: true, Node: node}, nil
}

// Move hands one target off to an explicit destination node — the
// operator seam rebalancing and benchmarks use.
func (r *Router) Move(target, to string) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	r.mu.Lock()
	rt, ok := r.routes[target]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownTarget, target)
	}
	from := r.members[rt.node]
	dest := r.members[to]
	r.mu.Unlock()
	if from == nil || dest == nil || dest.dead {
		return ErrNoNodes
	}
	if from == dest {
		return nil
	}
	return r.handoff(target, from, dest)
}

// handoff moves one live session from one node to another:
//
//	mark in-flight → export (pause+checkpoint+ship) → import
//	(append+resume) → flip route → purge source files
//
// On import failure the session is revived on the source from its
// still-present files and the route never flips, so the target stays
// served either way.
func (r *Router) handoff(target string, from, to *member) error {
	start := time.Now()
	r.mu.Lock()
	rt, ok := r.routes[target]
	if !ok || rt.node != from.info.ID {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s (not on %s)", ErrUnknownTarget, target, from.info.ID)
	}
	if rt.inFlight {
		r.mu.Unlock()
		return fmt.Errorf("cluster: %s already mid-handoff", target)
	}
	rt.inFlight = true
	r.mu.Unlock()

	fail := func(err error) error {
		r.mu.Lock()
		rt.inFlight = false
		r.mu.Unlock()
		if r.hub != nil {
			r.hub.ClusterHandoffFailed.Inc()
		}
		return err
	}

	exp, err := from.cli.call(request{Op: opExport, Target: target})
	if err != nil {
		r.noteTransport(from.info.ID, err)
		return fail(fmt.Errorf("export %s from %s: %w", target, from.info.ID, err))
	}
	if _, err := to.cli.call(request{Op: opImport, Target: target, State: exp.State}); err != nil {
		r.noteTransport(to.info.ID, err)
		// Roll back: the source still has the files (export detached,
		// nothing purged), so revive the session where it was.
		if _, rerr := from.cli.call(request{Op: opRevive, Target: target}); rerr != nil {
			r.logf("cluster: revive %s on %s after failed import: %v", target, from.info.ID, rerr)
		}
		return fail(fmt.Errorf("import %s into %s: %w", target, to.info.ID, err))
	}
	// The receiver owns the session; acknowledge by purging the
	// source's files. Best-effort: leftover files are harmless (a
	// future adopt skips flipped routes; import seq supersedes).
	if _, err := from.cli.call(request{Op: opPurge, Target: target}); err != nil {
		r.logf("cluster: purge %s on %s: %v", target, from.info.ID, err)
	}

	r.mu.Lock()
	rt.node = to.info.ID
	rt.inFlight = false
	r.mu.Unlock()
	r.bumpNodeSessions(from.info.ID, -1)
	r.bumpNodeSessions(to.info.ID, +1)
	if r.hub != nil {
		r.hub.ClusterHandoffs.Inc()
		r.hub.ClusterHandoffNs.ObserveDuration(time.Since(start))
	}
	r.logf("cluster: handoff %s %s→%s (%v)", target, from.info.ID, to.info.ID, time.Since(start).Round(time.Microsecond))
	return nil
}

// sweep is one health-loop tick: probe members, advance breakers,
// declare and fail over the dead.
func (r *Router) sweep(now time.Time) {
	r.mu.Lock()
	type probeTarget struct {
		id  string
		cli *rpcClient
	}
	probes := make([]probeTarget, 0, len(r.members))
	for id, m := range r.members {
		if !m.dead {
			probes = append(probes, probeTarget{id: id, cli: m.cli})
		}
	}
	r.mu.Unlock()
	sort.Slice(probes, func(i, j int) bool { return probes[i].id < probes[j].id })

	for _, p := range probes {
		if h, ok := r.monitor.Health(p.id); ok && h.State == health.StateDown {
			if !r.monitor.Allow(p.id) {
				continue // paced half-open probing
			}
		}
		_, err := p.cli.call(request{Op: opProbe})
		r.noteResult(p.id, err)
	}

	for _, ev := range r.monitor.Advance(now) {
		r.setNodeUp(ev.Node, ev.Up)
		if ev.Up {
			r.logf("cluster: node %s recovered (%s)", ev.Node, ev.Reason)
		} else {
			r.logf("cluster: node %s quarantined (%s): %v", ev.Node, ev.Reason, ev.Err)
		}
	}

	// Death sentence: quarantined past the grace window, or already
	// declared dead with routes left over from a failed adoption.
	r.mu.Lock()
	var dead []string
	for id, m := range r.members {
		if m.dead {
			for _, rt := range r.routes {
				if rt.node == id && !rt.inFlight {
					dead = append(dead, id)
					break
				}
			}
			continue
		}
		if h, ok := r.monitor.Health(id); ok && h.State == health.StateDown &&
			!h.DownSince.IsZero() && now.Sub(h.DownSince) >= r.pol.DeathAfter {
			dead = append(dead, id)
		}
	}
	r.mu.Unlock()
	sort.Strings(dead)
	for _, id := range dead {
		r.failover(id)
	}
}

// failover declares a node dead, removes its hash range, and
// resurrects its sessions on survivors from its checkpoint directory.
// Idempotent: a transport failure leaves the remaining targets routed
// to the dead member and the next sweep retries.
func (r *Router) failover(id string) {
	r.opMu.Lock()
	defer r.opMu.Unlock()

	r.mu.Lock()
	m, ok := r.members[id]
	if !ok {
		r.mu.Unlock()
		return
	}
	first := !m.dead
	m.dead = true
	r.ring.remove(id)
	// Group the dead node's targets by their new ring owner.
	groups := make(map[string][]string)
	for target, rt := range r.routes {
		if rt.node != id || rt.inFlight {
			continue
		}
		owner, ok := r.ring.owner(target)
		if !ok {
			continue // no survivors; targets stay cached-only
		}
		if sm := r.members[owner]; sm == nil || sm.dead {
			continue
		}
		rt.inFlight = true
		groups[owner] = append(groups[owner], target)
	}
	dir := m.info.Dir
	total := 0
	for _, ts := range groups {
		total += len(ts)
	}
	r.mu.Unlock()

	if first {
		if r.hub != nil {
			r.hub.ClusterFailovers.Inc()
		}
		r.setNodeUp(id, false)
		r.logf("cluster: node %s declared dead, failing over %d targets", id, total)
	}
	if total == 0 {
		return
	}

	owners := make([]string, 0, len(groups))
	for owner := range groups {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	// Adoptions run sequentially per survivor: each opens the dead
	// node's directory exclusively (flock), so parallelism would only
	// contend on the lock.
	for _, owner := range owners {
		targets := groups[owner]
		sort.Strings(targets)
		sm := r.memberByID(owner)
		if sm == nil {
			r.unmarkInFlight(targets)
			continue
		}
		resp, err := sm.cli.call(request{Op: opAdopt, Dir: dir, Targets: targets})
		if err != nil {
			r.noteTransport(owner, err)
			r.logf("cluster: adopt on %s failed: %v", owner, err)
			r.unmarkInFlight(targets) // next sweep retries
			continue
		}
		adopted := make(map[string]bool, len(resp.Adopted))
		for _, t := range resp.Adopted {
			adopted[t] = true
		}
		for _, t := range targets {
			if !adopted[t] {
				// No durable state survived (never checkpointed): track
				// fresh on the survivor rather than losing the target.
				if _, err := sm.cli.call(request{Op: opTrack, Target: t}); err != nil {
					r.logf("cluster: re-track %s on %s failed: %v", t, owner, err)
					r.unmarkInFlight([]string{t})
					continue
				}
				r.logf("cluster: %s restarted cold on %s (no durable state)", t, owner)
			}
		}
		r.mu.Lock()
		flipped := 0
		for _, t := range targets {
			rt := r.routes[t]
			if rt == nil || !rt.inFlight {
				continue
			}
			rt.node = owner
			rt.inFlight = false
			flipped++
		}
		r.mu.Unlock()
		r.bumpNodeSessions(id, -flipped)
		r.bumpNodeSessions(owner, flipped)
		if r.hub != nil {
			r.hub.ClusterResurrected.Add(uint64(len(resp.Adopted)))
		}
		r.logf("cluster: %d sessions resurrected on %s (%d adopted, %d cold)", flipped, owner, len(resp.Adopted), flipped-len(resp.Adopted))
	}
}

// unmarkInFlight clears the in-flight flag on targets whose move
// failed, leaving them routed to their previous node.
func (r *Router) unmarkInFlight(targets []string) {
	r.mu.Lock()
	for _, t := range targets {
		if rt := r.routes[t]; rt != nil {
			rt.inFlight = false
		}
	}
	r.mu.Unlock()
}

func (r *Router) memberByID(id string) *member {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.members[id]
}

// noteResult feeds probe/query outcomes into the node breaker: a
// success both clears the error streak and counts as the recovery
// emission a Down node needs to close its breaker.
func (r *Router) noteResult(node string, err error) {
	if _, ok := err.(*RemoteError); ok {
		err = nil // the node answered; application errors are not node failures
	}
	r.monitor.Done(node, 0, err)
	if err == nil {
		r.monitor.Tap(node, core.Sample{})
	}
}

// noteTransport feeds a transport failure into the breaker without
// crediting RemoteErrors.
func (r *Router) noteTransport(node string, err error) {
	if _, ok := err.(*RemoteError); ok {
		return
	}
	r.monitor.Done(node, 0, err)
}

func (r *Router) noteStale() {
	if r.hub != nil {
		r.hub.ClusterStaleServed.Inc()
	}
}

func (r *Router) setNodeUp(node string, up bool) {
	if r.hub == nil {
		return
	}
	v := int64(0)
	if up {
		v = 1
	}
	r.hub.ClusterNodeUp(node).Set(v)
}

func (r *Router) bumpNodeSessions(node string, delta int) {
	if r.hub == nil || delta == 0 {
		return
	}
	r.hub.ClusterNodeSessions(node).Add(int64(delta))
}

// Targets returns every tracked target, sorted.
func (r *Router) Targets() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.routes))
	for t := range r.routes {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// NodeOf returns a target's current home and whether a handoff or
// failover is in flight for it.
func (r *Router) NodeOf(target string) (node string, inFlight bool, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rt, ok := r.routes[target]
	if !ok {
		return "", false, false
	}
	return rt.node, rt.inFlight, true
}

// InFlight counts targets currently mid-handoff.
func (r *Router) InFlight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, rt := range r.routes {
		if rt.inFlight {
			n++
		}
	}
	return n
}

// MemberStatus is one row of the router's membership view.
type MemberStatus struct {
	ID       string
	Addr     string
	Dead     bool
	Down     bool
	Sessions int // targets routed to the node
}

// Members returns the membership view, sorted by ID.
func (r *Router) Members() []MemberStatus {
	r.mu.Lock()
	counts := make(map[string]int)
	for _, rt := range r.routes {
		counts[rt.node]++
	}
	out := make([]MemberStatus, 0, len(r.members))
	for id, m := range r.members {
		out = append(out, MemberStatus{ID: id, Addr: m.info.Addr, Dead: m.dead, Sessions: counts[id]})
	}
	r.mu.Unlock()
	for i := range out {
		if h, ok := r.monitor.Health(out[i].ID); ok {
			out[i].Down = h.State == health.StateDown
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
