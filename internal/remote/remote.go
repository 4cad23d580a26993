package remote

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"perpos/internal/core"
)

// Uplink is a Processing Component that forwards every sample arriving
// at its input port to a remote Downlink over TCP — the device side of
// the Fig. 7 split. It dials lazily on first use and redials after
// connection failures with capped exponential backoff plus jitter:
// consecutive dial failures double the wait between attempts, from
// 200 ms up to 5 s (so an unreachable peer costs one cheap gate check
// per sample, not a dial timeout), and the jitter keeps a fleet of
// devices from thundering back in lockstep when the peer returns.
// Samples that cannot be sent are counted and dropped, since
// positioning data is perishable.
type Uplink struct {
	id      string
	addr    string
	accepts []core.Kind
	codecs  Codecs

	mu       sync.Mutex
	conn     net.Conn
	lastTry  time.Time
	backoff  time.Duration // current wait before the next dial attempt
	dialErrs int           // consecutive dial failures
	rng      *rand.Rand
	sent     int
	dropped  int
}

var _ core.Component = (*Uplink)(nil)

// The uplink's redial backoff: the base wait after the first failed
// dial, its cap, and the jitter applied to each wait (±20%).
const (
	uplinkBaseBackoff = 200 * time.Millisecond
	uplinkMaxBackoff  = 5 * time.Second
	uplinkJitter      = 0.2
)

// NewUplink returns an uplink forwarding the given kinds to addr.
func NewUplink(id, addr string, accepts []core.Kind, codecs Codecs) *Uplink {
	if len(accepts) == 0 {
		accepts = []core.Kind{core.KindAny}
	}
	if codecs == nil {
		codecs = DefaultCodecs()
	}
	return &Uplink{
		id:      id,
		addr:    addr,
		accepts: accepts,
		codecs:  codecs,
		backoff: uplinkBaseBackoff,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// ID implements core.Component.
func (u *Uplink) ID() string { return u.id }

// Spec implements core.Component: a sink from the local graph's point
// of view (the data continues on the peer).
func (u *Uplink) Spec() core.Spec {
	return core.Spec{
		Name:   "Uplink",
		Inputs: []core.PortSpec{{Name: "in", Accepts: u.accepts}},
	}
}

// Process implements core.Component.
func (u *Uplink) Process(_ int, in core.Sample, _ core.Emit) error {
	body, err := encodeSample(in, u.codecs)
	if err != nil {
		// Unencodable kinds are a wiring bug worth surfacing.
		return err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.sendLocked(body); err != nil {
		// One immediate retry covers a connection that went stale
		// between samples; beyond that the backoff gate decides when the
		// next dial happens, and the sample is dropped — position data
		// is perishable and must not wedge the pipeline.
		if err := u.sendLocked(body); err != nil {
			u.dropped++
			return nil
		}
	}
	u.sent++
	return nil
}

func (u *Uplink) sendLocked(body []byte) error {
	if u.conn == nil {
		if time.Since(u.lastTry) < u.backoff {
			return fmt.Errorf("remote: uplink %q backing off", u.id)
		}
		u.lastTry = time.Now()
		conn, err := net.DialTimeout("tcp", u.addr, 2*time.Second)
		if err != nil {
			u.dialErrs++
			u.backoff = u.nextBackoffLocked()
			return fmt.Errorf("dial %s: %w", u.addr, err)
		}
		u.conn = conn
		u.dialErrs = 0
		u.backoff = uplinkBaseBackoff
	}
	if err := WriteFrame(u.conn, FrameSample, body); err != nil {
		_ = u.conn.Close()
		u.conn = nil
		return err
	}
	return nil
}

// nextBackoffLocked computes the wait before the next dial: the base
// doubled per consecutive failure, capped (core.RestartPolicy's delay),
// then jittered ±uplinkJitter.
func (u *Uplink) nextBackoffLocked() time.Duration {
	d := float64(core.RestartPolicy{Base: uplinkBaseBackoff, Max: uplinkMaxBackoff}.Delay(u.dialErrs))
	d *= 1 - uplinkJitter + 2*uplinkJitter*u.rng.Float64()
	if d > float64(uplinkMaxBackoff) {
		d = float64(uplinkMaxBackoff)
	}
	return time.Duration(d)
}

// Stats returns (sent, dropped) counts.
func (u *Uplink) Stats() (sent, dropped int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.sent, u.dropped
}

// Close shuts the connection down.
func (u *Uplink) Close() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.conn == nil {
		return nil
	}
	err := u.conn.Close()
	u.conn = nil
	return err
}

// Downlink is the server-side source component: received samples are
// re-emitted through its output port as if produced locally, preserving
// the envelope (time, attributes) so timing-dependent features keep
// working across the host boundary.
type Downlink struct {
	id  string
	out core.OutputSpec

	mu       sync.Mutex
	received int
}

var _ core.Component = (*Downlink)(nil)

// NewDownlink returns a downlink source declaring the given output.
func NewDownlink(id string, out core.OutputSpec) *Downlink {
	return &Downlink{id: id, out: out}
}

// ID implements core.Component.
func (d *Downlink) ID() string { return d.id }

// Spec implements core.Component.
func (d *Downlink) Spec() core.Spec {
	return core.Spec{Name: "Downlink", Output: d.out}
}

// Process implements core.Component; downlinks have no graph inputs.
func (d *Downlink) Process(int, core.Sample, core.Emit) error { return nil }

// Received returns how many samples arrived over the network.
func (d *Downlink) Received() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.received
}

// Server accepts uplink connections and injects received samples into a
// graph through a Downlink component. Use one Server per Downlink.
type Server struct {
	ln     net.Listener
	codecs Codecs
	g      *core.Graph
	dl     *Downlink

	mu     sync.Mutex
	errs   []error
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") and injects every
// received sample into g as an emission of the given Downlink, which
// must already be added to g. Injection runs on receiver goroutines;
// start the graph (core.Graph.Start), or make sure no local source is
// being stepped concurrently.
func Serve(addr string, g *core.Graph, dl *Downlink, codecs Codecs) (*Server, error) {
	if codecs == nil {
		codecs = DefaultCodecs()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, codecs: codecs, g: g, dl: dl, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.readLoop(conn)
	}
}

func (s *Server) readLoop(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	for {
		ftype, body, err := ReadFrame(conn)
		if err != nil {
			// Magic/version failures are recorded before dropping the
			// connection: a fleet running mixed builds should show up in
			// Errs(), not vanish as silent disconnects.
			var ve *VersionError
			if errors.Is(err, ErrBadMagic) || errors.As(err, &ve) {
				s.noteErr(err)
			}
			return // EOF or broken/incompatible peer: drop the connection
		}
		if ftype != FrameSample {
			// Control frames belong to cluster RPC listeners, not sample
			// ingest; note the misroute and keep the connection alive.
			s.noteErr(fmt.Errorf("remote: unexpected frame type 0x%02x on sample link", byte(ftype)))
			continue
		}
		sample, err := decodeSample(body, s.codecs)
		if err != nil {
			s.noteErr(err)
			continue
		}
		// Preserve the received envelope fields that matter (time,
		// attrs); the local graph restamps Source/Logical/Spans. The
		// received counter increments only after the sample has fully
		// propagated, so callers can use Received() as a processing
		// barrier (lockstep simulations rely on this).
		if err := s.g.Inject(s.dl.ID(), sample); err != nil {
			s.noteErr(err)
		}
		s.dl.mu.Lock()
		s.dl.received++
		s.dl.mu.Unlock()
	}
}

func (s *Server) noteErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.errs) < 64 {
		s.errs = append(s.errs, err)
	}
}

// Errs returns decode/inject errors collected so far.
func (s *Server) Errs() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]error, len(s.errs))
	copy(out, s.errs)
	return out
}

// Close stops the listener and waits for receiver goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
