// Package gps simulates a consumer GPS receiver and provides the
// Processing Components of the paper's GPS pipeline (Fig. 1): the
// Receiver source emitting raw NMEA strings, the Parser turning strings
// into NMEA measurements, and the Interpreter producing WGS84 positions
// — plus the HDOP and NumberOfSatellites Component Features of
// §3.1–3.2.
//
// Substitution note (DESIGN.md): the paper used real receivers. The
// simulator reproduces the behaviours the case studies depend on:
// HDOP-scaled position noise, satellite-count degradation indoors, the
// "keeps producing measurements after losing sight of the satellites"
// failure mode that motivates the §3.1 filter, and acquisition delays
// plus controllable power state for EnTracked (§3.3).
package gps

import (
	"math"
	"math/rand"
	"time"

	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/nmea"
	"perpos/internal/trace"
)

// Sample kinds of the GPS pipeline.
const (
	// KindRaw carries raw NMEA sentence strings from the receiver.
	KindRaw core.Kind = "gps.raw"
	// KindSentence carries parsed nmea.Sentence values.
	KindSentence core.Kind = "gps.sentence"
)

// Mode is the receiver power state.
type Mode int

// Receiver power states. The zero value is intentionally invalid so a
// forgotten initialization is caught.
const (
	// ModeOff: the receiver is powered down and produces nothing.
	ModeOff Mode = iota + 1
	// ModeAcquiring: powered on, searching for satellites; produces
	// no-fix sentences.
	ModeAcquiring
	// ModeTracking: producing fixes.
	ModeTracking
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeAcquiring:
		return "acquiring"
	case ModeTracking:
		return "tracking"
	default:
		return "invalid"
	}
}

// TickFunc observes receiver state per simulated epoch; the energy
// model uses it to integrate power draw.
type TickFunc func(mode Mode, d time.Duration)

// The receiver emits one epoch a second, and its horizontal error is
// about HDOP * uere metres. An off-duration of coldThreshold or more
// makes reacquisition cold.
const (
	epoch         = time.Second
	uere          = 3
	coldThreshold = 10 * time.Minute
)

// Config parameterizes the receiver simulation.
type Config struct {
	// WarmStart is the reacquisition delay after a short power-down
	// (default 6 s).
	WarmStart time.Duration
	// ColdStart is the acquisition delay after a long power-down or at
	// boot (default 30 s).
	ColdStart time.Duration
	// IndoorDriftRate is the random-walk drift in m per sqrt(s) applied
	// to indoor "ghost" fixes (default 1.5).
	IndoorDriftRate float64
	// Seed makes the simulation deterministic.
	Seed int64
	// Loop wraps back to the start of the trace instead of exhausting,
	// turning the receiver into an endless source — what saturation
	// benchmarks and soak runs drive flat-out.
	Loop bool
}

func (c Config) withDefaults() Config {
	if c.WarmStart <= 0 {
		c.WarmStart = 6 * time.Second
	}
	if c.ColdStart <= 0 {
		c.ColdStart = 30 * time.Second
	}
	if c.IndoorDriftRate <= 0 {
		c.IndoorDriftRate = 1.5
	}
	return c
}

// Receiver is a simulated GPS receiver: a Producer source that walks a
// ground-truth trace and emits raw NMEA strings each epoch. It
// implements PowerControllable for EnTracked-style duty cycling.
type Receiver struct {
	id   string
	cfg  Config
	tr   *trace.Trace
	rng  *rand.Rand
	proj *geo.Projection // trace-origin projection, built once

	now         time.Time
	end         time.Time
	mode        Mode
	offSince    time.Time
	acquireLeft time.Duration

	drift    geo.ENU // accumulated indoor drift
	lastSats int
	onTick   []TickFunc

	emitted    int
	epochCount int

	// gsvSats and buf are formatting scratch for one sentence; the
	// emitted string never aliases them, so reuse across sentences is
	// safe.
	gsvSats [4]nmea.SatelliteInView
	buf     []byte
}

var _ core.Producer = (*Receiver)(nil)

// ReceiverOption configures a Receiver.
type ReceiverOption func(*Receiver)

// WithTick installs a per-epoch tick observer (energy accounting,
// power strategies).
func WithTick(fn TickFunc) ReceiverOption {
	return func(r *Receiver) { r.AddTick(fn) }
}

// StartOff boots the receiver powered down (EnTracked scenarios).
func StartOff() ReceiverOption {
	return func(r *Receiver) {
		r.mode = ModeOff
		r.offSince = time.Time{} // never been on: cold
	}
}

// NewReceiver returns a receiver replaying the given ground-truth trace.
func NewReceiver(id string, tr *trace.Trace, cfg Config, opts ...ReceiverOption) *Receiver {
	cfg = cfg.withDefaults()
	r := &Receiver{
		id:   id,
		cfg:  cfg,
		tr:   tr,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		proj: geo.NewProjection(tr.Origin),
		mode: ModeAcquiring,
	}
	r.acquireLeft = cfg.ColdStart
	if tr.Len() > 0 {
		r.now = tr.Points[0].Time
		r.end = tr.Points[tr.Len()-1].Time
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// ID implements core.Component.
func (r *Receiver) ID() string { return r.id }

// Spec implements core.Component: a source with one raw-string output.
func (r *Receiver) Spec() core.Spec {
	return core.Spec{
		Name:   "GPSReceiver",
		Output: core.OutputSpec{Kind: KindRaw},
	}
}

// Process implements core.Component; sources receive no input.
func (r *Receiver) Process(int, core.Sample, core.Emit) error { return nil }

// Mode returns the current power state.
func (r *Receiver) Mode() Mode { return r.mode }

// Moving reports whether the device is currently in motion. It stands
// in for the accelerometer EnTracked [3] uses to detect movement
// (substitution documented in DESIGN.md): the reading comes from the
// ground-truth trace, as a real accelerometer's would from the user,
// and is available even while the GPS is powered down.
func (r *Receiver) Moving() bool {
	truth, ok := r.tr.At(r.now)
	return ok && truth.Speed > 0.1
}

// AddTick registers an additional per-epoch tick observer.
func (r *Receiver) AddTick(fn TickFunc) {
	r.onTick = append(r.onTick, fn)
}

// PowerOn requests fixes; the receiver enters acquisition (warm or cold
// depending on how long it was off).
func (r *Receiver) PowerOn() {
	if r.mode != ModeOff {
		return
	}
	if r.offSince.IsZero() || r.now.Sub(r.offSince) >= coldThreshold {
		r.acquireLeft = r.cfg.ColdStart
	} else {
		r.acquireLeft = r.cfg.WarmStart
	}
	r.mode = ModeAcquiring
}

// PowerOff powers the receiver down.
func (r *Receiver) PowerOff() {
	if r.mode == ModeOff {
		return
	}
	r.mode = ModeOff
	r.offSince = r.now
}

// Step implements core.Producer: advance one epoch and emit the epoch's
// NMEA output.
func (r *Receiver) Step(emit core.Emit) (bool, error) {
	if r.tr.Len() == 0 {
		return false, nil
	}
	if r.now.After(r.end) {
		if !r.cfg.Loop {
			return false, nil
		}
		r.now = r.tr.Points[0].Time
	}
	truth, _ := r.tr.At(r.now)

	for _, tick := range r.onTick {
		tick(r.mode, epoch)
	}

	switch r.mode {
	case ModeOff:
		// Powered down: silence.
	case ModeAcquiring:
		r.acquireLeft -= epoch
		emitSentence(r, emit, r.noFixGGA())
		if r.acquireLeft <= 0 {
			r.mode = ModeTracking
		}
	case ModeTracking:
		r.emitEpoch(emit, truth)
	}

	r.now = r.now.Add(epoch)
	return r.cfg.Loop || !r.now.After(r.end), nil
}

// emitEpoch produces the sentences for one tracking epoch.
func (r *Receiver) emitEpoch(emit core.Emit, truth trace.Point) {
	sats, hdop := r.environment(truth)
	r.lastSats = sats

	if sats < 3 {
		// No fix at all this epoch.
		emitSentence(r, emit, r.noFixGGA())
		return
	}

	local := truth.Local
	sigma := hdop * uere
	if truth.Indoor {
		// The drifting ghost fix: the device keeps reporting, anchored
		// to a random walk around the last good position.
		step := r.cfg.IndoorDriftRate * math.Sqrt(epoch.Seconds())
		r.drift.East += r.rng.NormFloat64() * step
		r.drift.North += r.rng.NormFloat64() * step
		local.East += r.drift.East
		local.North += r.drift.North
	} else {
		r.drift = geo.ENU{}
	}
	local.East += r.rng.NormFloat64() * sigma
	local.North += r.rng.NormFloat64() * sigma
	fix := r.proj.ToGlobal(local)

	gga := nmea.GGA{
		Time:          r.now,
		Lat:           fix.Lat,
		Lon:           fix.Lon,
		Quality:       nmea.FixGPS,
		NumSatellites: sats,
		HDOP:          round1(hdop),
		Altitude:      55,
	}
	emitSentence(r, emit, gga)

	speedKn := truth.Speed / 0.514444 * (1 + r.rng.NormFloat64()*0.1)
	if speedKn < 0 {
		speedKn = 0
	}
	rmc := nmea.RMC{
		Time:    r.now,
		Valid:   true,
		Lat:     fix.Lat,
		Lon:     fix.Lon,
		SpeedKn: round1(speedKn),
		CourseT: round1(truth.Heading),
	}
	emitSentence(r, emit, rmc)

	gsa := nmea.GSA{
		Auto:    true,
		FixMode: 3,
		PRNs:    prns(sats),
		PDOP:    round1(hdop * 1.4),
		HDOP:    round1(hdop),
		VDOP:    round1(hdop * 1.1),
	}
	emitSentence(r, emit, gsa)

	// A satellites-in-view report every fifth epoch, like real
	// receivers interleave the slow GSV group.
	r.epochCount++
	if r.epochCount%5 == 0 {
		r.emitGSVGroup(emit, sats)
	}
}

// emitGSVGroup emits the satellites-in-view sentences for the current
// constellation (up to 4 satellites per sentence), formatting each one
// out of the receiver's scratch buffer.
func (r *Receiver) emitGSVGroup(emit core.Emit, sats int) {
	ids := prns(sats)
	total := (len(ids) + 3) / 4
	for msg := 0; msg < total; msg++ {
		n := 0
		for i := msg * 4; i < len(ids) && i < (msg+1)*4; i++ {
			r.gsvSats[n] = nmea.SatelliteInView{
				PRN:       ids[i],
				Elevation: 15 + (ids[i]*7)%70,
				Azimuth:   (ids[i] * 37) % 360,
				SNR:       30 + r.rng.Intn(15),
			}
			n++
		}
		g := nmea.GSV{
			TotalMsgs:   total,
			MsgNum:      msg + 1,
			TotalInView: len(ids),
			Satellites:  r.gsvSats[:n],
		}
		emitSentence(r, emit, g)
	}
}

// environment returns the satellite count and HDOP at a ground-truth
// point. Indoors, visibility collapses and dilution explodes — the
// seams the §3.1 feature exposes.
func (r *Receiver) environment(truth trace.Point) (sats int, hdop float64) {
	if truth.Indoor {
		sats = 2 + r.rng.Intn(4) // 2..5
		hdop = 5 + r.rng.Float64()*10
		return sats, hdop
	}
	sats = 7 + r.rng.Intn(5) // 7..11
	hdop = 0.8 + r.rng.Float64()*0.7
	return sats, hdop
}

func (r *Receiver) noFixGGA() nmea.GGA {
	return nmea.GGA{
		Time:          r.now,
		Quality:       nmea.FixInvalid,
		NumSatellites: r.lastSats,
		HDOP:          99.9,
	}
}

// emitSentence renders and emits one sentence. It is generic over the
// concrete sentence type (a constraint, not an interface parameter) so
// the sentence value never boxes, and it formats into the receiver's
// own buffer, so a sentence costs two allocations: the string and its
// payload box.
func emitSentence[S nmea.Appender](r *Receiver, emit core.Emit, s S) {
	r.emitted++
	r.buf = s.AppendFormat(r.buf[:0])
	emit(core.NewSample(KindRaw, string(r.buf), r.now))
}

// prnTable is the simulator's fixed constellation: PRNs 2..13. prns
// returns read-only views of it, so callers must not mutate the result.
var prnTable = [...]int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}

func prns(n int) []int {
	if n > len(prnTable) {
		n = len(prnTable)
	}
	if n < 0 {
		n = 0
	}
	return prnTable[:n]
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }
