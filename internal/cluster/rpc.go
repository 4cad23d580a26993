package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"perpos/internal/core"
	"perpos/internal/positioning"
	"perpos/internal/remote"
)

// RPC operations. Each request travels as a JSON envelope inside a
// remote.FrameControl frame; the versioned frame header (magic +
// protocol version) rejects cross-version peers before any envelope is
// parsed.
const (
	opProbe  = "probe"  // liveness + session count
	opTrack  = "track"  // create a session for a target
	opQuery  = "query"  // current position of a target
	opExport = "export" // evict + final checkpoint + ship state (handoff source)
	opImport = "import" // append shipped state + resume (handoff receiver)
	opRevive = "revive" // resume from the node's own store (handoff rollback)
	opPurge  = "purge"  // delete a target's checkpoint files (handoff ack)
	opAdopt  = "adopt"  // open a dead peer's store dir and resurrect targets
)

// request is the control-frame RPC envelope.
type request struct {
	Op      string          `json:"op"`
	Target  string          `json:"target,omitempty"`
	State   json.RawMessage `json:"state,omitempty"`
	Dir     string          `json:"dir,omitempty"`
	Targets []string        `json:"targets,omitempty"`
}

// response is the control-frame RPC reply.
type response struct {
	OK       bool                  `json:"ok"`
	Err      string                `json:"err,omitempty"`
	State    json.RawMessage       `json:"state,omitempty"`
	Pos      *positioning.Position `json:"pos,omitempty"`
	Sessions int                   `json:"sessions,omitempty"`
	Adopted  []string              `json:"adopted,omitempty"`
}

func errResp(format string, args ...any) response {
	return response{Err: fmt.Sprintf(format, args...)}
}

// RemoteError is an application-level failure reported by a node (the
// RPC round-trip itself succeeded). It is never retried by the client:
// the node answered; asking again would get the same answer.
type RemoteError struct {
	Node string
	Op   string
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("cluster: node %s %s: %s", e.Node, e.Op, e.Msg)
}

// rpcClient is the router's connection to one node: a single persistent
// conn, lazily dialed, serialized per node. Transport failures reset
// the conn and are retried up to Policy.Retries with doubling backoff,
// capped at Policy.CallTimeout; every attempt is bounded by
// Policy.CallTimeout via conn deadlines.
type rpcClient struct {
	node string
	addr string
	pol  Policy
	dial Dialer

	mu   sync.Mutex
	conn net.Conn
}

func newRPCClient(node, addr string, pol Policy, dial Dialer) *rpcClient {
	if dial == nil {
		dial = defaultDialer
	}
	return &rpcClient{node: node, addr: addr, pol: pol, dial: dial}
}

// call performs one RPC. A nil error with resp.OK unset cannot happen:
// application failures surface as *RemoteError, transport failures as
// the underlying error after retries are exhausted.
func (c *rpcClient) call(req request) (response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	backoff := core.RestartPolicy{Base: c.pol.RetryBackoff, Max: c.pol.CallTimeout}
	for attempt := 0; attempt <= c.pol.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff.Delay(attempt))
		}
		resp, err := c.tryLocked(req)
		if err != nil {
			lastErr = err
			continue
		}
		if !resp.OK {
			return resp, &RemoteError{Node: c.node, Op: req.Op, Msg: resp.Err}
		}
		return resp, nil
	}
	return response{}, fmt.Errorf("cluster: rpc %s to node %s: %w", req.Op, c.node, lastErr)
}

func (c *rpcClient) tryLocked(req request) (response, error) {
	if c.conn == nil {
		conn, err := c.dial(c.addr, c.pol.DialTimeout)
		if err != nil {
			return response{}, err
		}
		c.conn = conn
	}
	body, err := json.Marshal(req)
	if err != nil {
		return response{}, err
	}
	_ = c.conn.SetDeadline(time.Now().Add(c.pol.CallTimeout))
	if err := remote.WriteFrame(c.conn, remote.FrameControl, body); err != nil {
		c.resetLocked()
		return response{}, err
	}
	ftype, rbody, err := remote.ReadFrame(c.conn)
	if err != nil {
		c.resetLocked()
		return response{}, err
	}
	_ = c.conn.SetDeadline(time.Time{})
	if ftype != remote.FrameControl {
		c.resetLocked()
		return response{}, fmt.Errorf("cluster: unexpected frame type 0x%02x from node %s", byte(ftype), c.node)
	}
	var resp response
	if err := json.Unmarshal(rbody, &resp); err != nil {
		c.resetLocked()
		return response{}, err
	}
	return resp, nil
}

func (c *rpcClient) resetLocked() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}

// close drops the persistent connection.
func (c *rpcClient) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked()
}
