package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"perpos/internal/chaos"
	"perpos/internal/checkpoint"
	"perpos/internal/obs"
	"perpos/internal/remote"
	"perpos/internal/runtime"
)

// NodeConfig configures one cluster node.
type NodeConfig struct {
	// ID names the node on the ring and in metrics.
	ID string
	// Dir is the node's checkpoint store directory. The node Opens it
	// exclusively (flock); on node death the lock dies with it, which
	// is what lets a survivor adopt the directory.
	Dir string
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Session is the session template for this node's manager. Its
	// Checkpoints field is replaced by the node's own store; everything
	// else (blueprint, overrides, observability) passes through and
	// must be identical across nodes, so a handed-off target continues
	// the same pipeline on its new home.
	Session runtime.SessionConfig
	// Store tunes the node's checkpoint store.
	Store checkpoint.Options
	// CheckpointEvery checkpoints each session every this many pump
	// rounds (default 8; <0 disables periodic checkpoints).
	CheckpointEvery int
	// AdoptLockWait bounds how long an adopt RPC retries Open on a dead
	// peer's still-locked directory (default 1s). The flock releases
	// when the peer's store closes or its process dies; two survivors
	// adopting from the same directory also contend here and take
	// turns.
	AdoptLockWait time.Duration
}

// Node is one runtime process of the session tier: a runtime.Manager,
// its checkpoint store, and a control-frame RPC server the Router (and
// peers, transitively through the Router) drives. Sessions are stepped
// deterministically with Pump — or continuously with StartPump — so
// chaos tests can interleave traffic and faults without real-time
// races.
type Node struct {
	id      string
	dir     string
	mgr     *runtime.Manager
	store   *checkpoint.Store
	ln      net.Listener
	ckptEv  int
	lockTry time.Duration
	// hub is the session template's metrics hub (nil when the node
	// runs unobserved); the pump counts its failures there.
	hub *obs.Metrics

	// pumpMu serialises pump rounds: Supervisor.Sweep is not
	// re-entrant.
	pumpMu sync.Mutex

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	killed   bool
	rounds   int
	pumpStop chan struct{}
	wg       sync.WaitGroup
	pumpWG   sync.WaitGroup
}

// Node implements chaos.Controllable so kill scripts drive it like any
// other fault target; Heal is a no-op — a hard-killed process does not
// come back, a replacement node Joins instead.
var _ chaos.Controllable = (*Node)(nil)

// StartNode opens the node's store, builds its manager and starts its
// RPC listener.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("cluster: node needs an ID")
	}
	if cfg.Dir == "" {
		return nil, errors.New("cluster: node needs a checkpoint dir")
	}
	store, err := checkpoint.Open(cfg.Dir, cfg.Store)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", cfg.ID, err)
	}
	scfg := cfg.Session
	scfg.Checkpoints = store
	mgr, err := runtime.NewManager(scfg)
	if err != nil {
		_ = store.Close()
		return nil, fmt.Errorf("cluster: node %s: %w", cfg.ID, err)
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		mgr.Close()
		_ = store.Close()
		return nil, fmt.Errorf("cluster: node %s: listen %s: %w", cfg.ID, addr, err)
	}
	ckptEv := cfg.CheckpointEvery
	if ckptEv == 0 {
		ckptEv = 8
	}
	lockTry := cfg.AdoptLockWait
	if lockTry <= 0 {
		lockTry = time.Second
	}
	n := &Node{
		id:      cfg.ID,
		dir:     cfg.Dir,
		mgr:     mgr,
		store:   store,
		ln:      ln,
		ckptEv:  ckptEv,
		lockTry: lockTry,
		hub:     cfg.Session.Observability,
		conns:   make(map[net.Conn]struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// ID returns the node's cluster identity.
func (n *Node) ID() string { return n.id }

// Addr returns the bound RPC address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Dir returns the checkpoint store directory.
func (n *Node) Dir() string { return n.dir }

// Info returns the node's routing descriptor for Router.Join.
func (n *Node) Info() NodeInfo {
	return NodeInfo{ID: n.id, Addr: n.Addr(), Dir: n.dir}
}

// Manager exposes the node's session manager (tests, local inspection).
func (n *Node) Manager() *runtime.Manager { return n.mgr }

// Store exposes the node's checkpoint store (tests, local inspection).
func (n *Node) Store() *checkpoint.Store { return n.store }

// Sessions returns the node's live session count.
func (n *Node) Sessions() int { return n.mgr.Len() }

// Down reports whether the node was killed.
func (n *Node) Down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.killed
}

// Pump advances every live session one step per round, checkpointing
// each session every CheckpointEvery rounds and then sweeping its
// supervisor, so breakers, reroutes and rules move as they would under
// Session.Start — the deterministic traffic driver. Rounds are
// serialised per node, so concurrent Pump calls never sweep one
// supervisor at once. Sessions that error, close mid-round (a
// concurrent handoff export) or exhaust their trace are skipped, not
// fatal; step and checkpoint errors are counted in the hub's
// ClusterPumpErrors.
func (n *Node) Pump(rounds int) error {
	for i := 0; i < rounds; i++ {
		if err := n.pumpRound(); err != nil {
			return err
		}
	}
	return nil
}

// pumpRound is one Pump round, under the node's pump lock.
func (n *Node) pumpRound() error {
	n.pumpMu.Lock()
	defer n.pumpMu.Unlock()
	n.mu.Lock()
	if n.killed {
		n.mu.Unlock()
		return ErrNodeDown
	}
	n.rounds++
	round := n.rounds
	n.mu.Unlock()
	ckpt := n.ckptEv > 0 && round%n.ckptEv == 0
	for _, id := range n.mgr.IDs() {
		s, ok := n.mgr.Get(id)
		if !ok {
			continue
		}
		_, err := s.StepN(1)
		if errors.Is(err, runtime.ErrClosed) {
			continue
		}
		if err != nil {
			n.pumpError(err)
		} else if ckpt {
			if _, err := s.Checkpoint(); err != nil {
				n.pumpError(err)
			}
		}
		if sup := s.Supervisor(); sup != nil {
			sup.Sweep(time.Now())
		}
	}
	return nil
}

// pumpError counts one failed step or checkpoint. A session that a
// concurrent handoff closed mid-round has moved, not failed, so
// ErrClosed is not counted.
func (n *Node) pumpError(err error) {
	if n.hub != nil && !errors.Is(err, runtime.ErrClosed) {
		n.hub.ClusterPumpErrors.Inc()
	}
}

// StartPump pumps continuously at the given interval until StopPump,
// Kill or Close — the live-traffic mode the perpos-run demo uses.
func (n *Node) StartPump(interval time.Duration) {
	n.mu.Lock()
	if n.killed || n.pumpStop != nil {
		n.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	n.pumpStop = stop
	n.mu.Unlock()
	n.pumpWG.Add(1)
	go func() {
		defer n.pumpWG.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if err := n.Pump(1); err != nil {
					return
				}
			}
		}
	}()
}

// StopPump halts a StartPump loop and waits for it.
func (n *Node) StopPump() {
	n.mu.Lock()
	if n.pumpStop != nil {
		close(n.pumpStop)
		n.pumpStop = nil
	}
	n.mu.Unlock()
	n.pumpWG.Wait()
}

// Kill simulates hard node death: the RPC listener and every live
// connection drop, the pump stops, and the checkpoint store closes —
// releasing the directory flock exactly as OS process death would, so
// survivors can adopt the directory. In-memory sessions are abandoned
// WITHOUT final checkpoints: recovery works from the last durable
// record, like a real crash. The error argument is accepted for
// chaos.Controllable; it is not used.
func (n *Node) Kill(error) {
	n.shutdownNet()
	_ = n.store.Close()
}

// Heal implements chaos.Controllable as a documented no-op: a dead
// process does not heal in place — a replacement node starts fresh and
// Joins the router.
func (n *Node) Heal() {}

// Close shuts the node down gracefully: pump stopped, listener closed,
// manager closed (final checkpoints for every session), store closed.
func (n *Node) Close() {
	n.shutdownNet()
	n.mgr.Close()
	_ = n.store.Close()
}

// shutdownNet stops traffic: pump, listener, live conns.
func (n *Node) shutdownNet() {
	n.mu.Lock()
	if n.killed {
		n.mu.Unlock()
		n.pumpWG.Wait()
		n.wg.Wait()
		return
	}
	n.killed = true
	if n.pumpStop != nil {
		close(n.pumpStop)
		n.pumpStop = nil
	}
	_ = n.ln.Close()
	for c := range n.conns {
		_ = c.Close()
	}
	n.mu.Unlock()
	n.pumpWG.Wait()
	n.wg.Wait()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.killed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
		_ = conn.Close()
	}()
	for {
		ftype, body, err := remote.ReadFrame(conn)
		if err != nil {
			return // EOF, kill, or incompatible peer
		}
		var resp response
		if ftype != remote.FrameControl {
			resp = errResp("unexpected frame type 0x%02x on control link", byte(ftype))
		} else {
			var req request
			if err := json.Unmarshal(body, &req); err != nil {
				resp = errResp("bad request: %v", err)
			} else {
				resp = n.handle(req)
			}
		}
		out, err := json.Marshal(resp)
		if err != nil {
			out, _ = json.Marshal(errResp("encode response: %v", err))
		}
		if err := remote.WriteFrame(conn, remote.FrameControl, out); err != nil {
			return
		}
	}
}

// handle executes one RPC against the node's manager and store.
func (n *Node) handle(req request) response {
	switch req.Op {
	case opProbe:
		return response{OK: true, Sessions: n.mgr.Len()}

	case opTrack:
		if _, err := n.mgr.GetOrCreate(req.Target); err != nil {
			return errResp("track %q: %v", req.Target, err)
		}
		return response{OK: true}

	case opQuery:
		s, ok := n.mgr.Get(req.Target)
		if !ok {
			return errResp("query %q: session not tracked here", req.Target)
		}
		resp := response{OK: true}
		if pos, ok := s.Provider().Last(); ok {
			resp.Pos = &pos
		}
		return resp

	case opExport:
		// Stop → final checkpoint → close is exactly Manager.Evict;
		// the freshest state is then the newest durable record. Detach
		// afterwards releases the journal handle but keeps the files as
		// a rollback backstop until the router's purge acknowledgment.
		if _, ok := n.mgr.Get(req.Target); !ok {
			return errResp("export %q: session not tracked here", req.Target)
		}
		if !n.mgr.Evict(req.Target) {
			return errResp("export %q: evict raced a concurrent removal", req.Target)
		}
		state, err := n.store.Load(req.Target)
		if err != nil {
			return errResp("export %q: load checkpoint: %v", req.Target, err)
		}
		_ = n.store.Detach(req.Target)
		raw, err := json.Marshal(state)
		if err != nil {
			return errResp("export %q: encode state: %v", req.Target, err)
		}
		return response{OK: true, State: raw}

	case opImport:
		var state checkpoint.SessionState
		if err := json.Unmarshal(req.State, &state); err != nil {
			return errResp("import %q: decode state: %v", req.Target, err)
		}
		if state.SessionID != req.Target {
			return errResp("import %q: state belongs to %q", req.Target, state.SessionID)
		}
		if _, err := n.store.Append(state); err != nil {
			return errResp("import %q: append: %v", req.Target, err)
		}
		if _, err := n.mgr.ResumeSession(req.Target); err != nil {
			return errResp("import %q: resume: %v", req.Target, err)
		}
		return response{OK: true}

	case opRevive:
		// Handoff rollback: the import failed after export evicted the
		// session, so resurrect it from this node's own (detached but
		// not purged) files.
		if _, err := n.mgr.ResumeSession(req.Target); err != nil {
			return errResp("revive %q: %v", req.Target, err)
		}
		return response{OK: true}

	case opPurge:
		if err := n.store.Remove(req.Target); err != nil {
			return errResp("purge %q: %v", req.Target, err)
		}
		return response{OK: true}

	case opAdopt:
		adopted, err := n.adopt(req.Dir, req.Targets)
		if err != nil {
			return errResp("adopt from %s: %v", req.Dir, err)
		}
		return response{OK: true, Adopted: adopted}

	default:
		return errResp("unknown op %q", req.Op)
	}
}

// adopt opens a dead peer's checkpoint directory and resurrects the
// given targets into this node. The peer's flock may still be held for
// a moment (its store closing, or a sibling survivor adopting a
// different range), so Open retries on ErrLocked up to AdoptLockWait.
// Targets without usable durable state are skipped — the router tracks
// them fresh instead. Adopted targets' files are removed from the
// peer's directory so a later adopter or a rejoining node cannot
// double-resurrect them.
func (n *Node) adopt(dir string, targets []string) ([]string, error) {
	var peer *checkpoint.Store
	deadline := time.Now().Add(n.lockTry)
	for {
		st, err := checkpoint.Open(dir, checkpoint.Options{})
		if err == nil {
			peer = st
			break
		}
		if !errors.Is(err, checkpoint.ErrLocked) || time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer func() { _ = peer.Close() }()
	var adopted []string
	for _, t := range targets {
		state, err := peer.Load(t)
		if err != nil {
			continue // no durable state: router falls back to a fresh track
		}
		if _, err := n.store.Append(state); err != nil {
			continue
		}
		if _, err := n.mgr.ResumeSession(t); err != nil {
			_ = n.store.Remove(t)
			continue
		}
		_ = peer.Remove(t)
		adopted = append(adopted, t)
	}
	return adopted, nil
}
