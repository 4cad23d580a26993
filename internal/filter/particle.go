package filter

import (
	"math"
	"math/rand"
	"time"

	"perpos/internal/building"
	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/positioning"
)

// Particle is one position hypothesis.
type Particle struct {
	Pos geo.ENU
	W   float64
}

// motionSigma is the particles' random-walk diffusion in m/sqrt(s), a
// pedestrian's.
const motionSigma = 1.0

// Config parameterizes the particle filter.
type Config struct {
	// Particles is the population size (default 500).
	Particles int
	// InitSigma is the spread used when (re)initialising around a
	// measurement (default 8 m).
	InitSigma float64
	// Seed makes the filter deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Particles <= 0 {
		c.Particles = 500
	}
	if c.InitSigma <= 0 {
		c.InitSigma = 8
	}
	return c
}

// ParticleFilter is the §3.2 complex positioning mechanism: a Processing
// Component that consumes technology positions and emits refined
// estimates. It uses two kinds of seams the middleware exposes:
//
//   - a Likelihood source (normally the HDOPLikelihood Channel Feature of
//     its input channel, wired with UseLikelihood) to weight particles by
//     measurement quality, and
//   - the building model to kill particles that move through walls.
//
// Plugged in as a merge-style component it would "violate the
// architecture" of layered middleware (the Graumann critique the paper
// cites); in PerPos it is just another Processing Component.
type ParticleFilter struct {
	id  string
	b   *building.Building
	cfg Config
	rng *rand.Rand

	likelihoods map[int]Likelihood
	fallback    gaussianLikelihood

	particles   []Particle
	initialized bool
	lastTime    time.Time

	emitted  int
	resample int
	reinit   int
}

var _ core.Component = (*ParticleFilter)(nil)

// NewParticleFilter returns a particle filter constrained by building b
// (nil disables wall constraints).
func NewParticleFilter(id string, b *building.Building, cfg Config) *ParticleFilter {
	cfg = cfg.withDefaults()
	return &ParticleFilter{
		id:       id,
		b:        b,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		fallback: gaussianLikelihood{fallbackSigma: cfg.InitSigma},
	}
}

// UseLikelihood wires the Likelihood source for the primary input port
// — in the Fig. 5 flow, the Likelihood Channel Feature retrieved from
// the filter's input channel.
func (pf *ParticleFilter) UseLikelihood(l Likelihood) { pf.UseLikelihoodForPort(0, l) }

// UseLikelihoodForPort wires a Likelihood source for one input port.
// Each channel feeding the filter gets its own likelihood (the Fig. 5
// lookup is per input channel); ports without one score measurements
// with the accuracy-based fallback. Mixing them up would, e.g., apply
// the GPS channel's HDOP-wide sigma to precise WiFi fixes and destroy
// the fusion weighting.
func (pf *ParticleFilter) UseLikelihoodForPort(port int, l Likelihood) {
	if pf.likelihoods == nil {
		pf.likelihoods = make(map[int]Likelihood)
	}
	pf.likelihoods[port] = l
}

// ID implements core.Component.
func (pf *ParticleFilter) ID() string { return pf.id }

// Spec implements core.Component: two position inputs, because the
// filter is a sensor-fusion component ("aggregating measurements from a
// GPS and a WiFi sensor", Fig. 2) — which also makes it a merge node in
// the Process Channel Layer. Wiring only one port is fine.
func (pf *ParticleFilter) Spec() core.Spec {
	return core.Spec{
		Name: "ParticleFilter",
		Inputs: []core.PortSpec{
			{Name: "primary", Accepts: []core.Kind{positioning.KindPosition}},
			{Name: "secondary", Accepts: []core.Kind{positioning.KindPosition}},
		},
		Output: core.OutputSpec{Kind: positioning.KindPosition},
	}
}

// Particles returns a copy of the current population (for visualisation
// — the red dots of Fig. 6).
func (pf *ParticleFilter) Particles() []Particle {
	out := make([]Particle, len(pf.particles))
	copy(out, pf.particles)
	return out
}

// Stats returns (positions emitted, resampling rounds, reinitialisations).
func (pf *ParticleFilter) Stats() (emitted, resamples, reinits int) {
	return pf.emitted, pf.resample, pf.reinit
}

// Process implements core.Component: predict, weight, resample,
// estimate.
func (pf *ParticleFilter) Process(port int, in core.Sample, emit core.Emit) error {
	pos, ok := in.Payload.(positioning.Position)
	if !ok {
		return nil
	}
	measured := pf.localOf(pos)

	if !pf.initialized {
		pf.initAround(measured)
		pf.lastTime = in.Time
	}

	dt := in.Time.Sub(pf.lastTime).Seconds()
	if dt < 0 {
		dt = 0
	}
	if dt > 30 {
		dt = 30 // cap after long gaps (power duty-cycling)
	}
	pf.lastTime = in.Time

	pf.predict(dt)
	avgLikelihood := pf.weight(port, measured, pos)

	if avgLikelihood < 1e-6 || !pf.normalise() {
		// Sensor resetting: the population is dead (walls) or the
		// measurement is nowhere near it — reinitialise around the
		// measurement.
		pf.reinit++
		pf.initAround(measured)
		pf.weight(port, measured, pos)
		pf.normalise()
	}
	if pf.effectiveN() < float64(pf.cfg.Particles)/2 {
		pf.systematicResample()
	}

	est, spread := pf.estimate()
	out := positioning.Position{
		Time:     in.Time,
		Global:   pf.globalOf(est, pos),
		Local:    est,
		HasLocal: true,
		Floor:    pos.Floor,
		Accuracy: spread,
		Source:   "particle-filter",
		RoomID:   pf.roomOf(est, pos),
	}
	pf.emitted++
	emit(core.NewSample(positioning.KindPosition, out, in.Time))
	return nil
}

func (pf *ParticleFilter) localOf(pos positioning.Position) geo.ENU {
	if pos.HasLocal {
		return pos.Local
	}
	if pf.b != nil {
		return pf.b.Projection().ToLocal(pos.Global)
	}
	return geo.ENU{East: pos.Global.Lon, North: pos.Global.Lat}
}

func (pf *ParticleFilter) globalOf(est geo.ENU, pos positioning.Position) geo.Point {
	if pf.b != nil {
		return pf.b.Projection().ToGlobal(est)
	}
	return pos.Global
}

func (pf *ParticleFilter) roomOf(est geo.ENU, pos positioning.Position) string {
	if pf.b == nil {
		return ""
	}
	if room, ok := pf.b.RoomAt(est, pos.Floor); ok {
		return room.ID
	}
	return ""
}

// initAround sprays the population around a measurement. With a
// building model, the anchor is first clamped into the floor's extent
// (a noisy measurement may lie outside the building entirely, and a
// population initialised there would be walled out) and particles
// landing outside any room are re-drawn so the population starts in
// legal space.
func (pf *ParticleFilter) initAround(c geo.ENU) {
	c = pf.clampToFloor(c)
	pf.particles = pf.particles[:0]
	w := 1 / float64(pf.cfg.Particles)
	for i := 0; i < pf.cfg.Particles; i++ {
		p := pf.drawNear(c, pf.cfg.InitSigma)
		pf.particles = append(pf.particles, Particle{Pos: p, W: w})
	}
	pf.initialized = true
}

// clampToFloor pulls a point into the building's floor extent (with a
// half-metre inset); without a building model it is the identity.
func (pf *ParticleFilter) clampToFloor(c geo.ENU) geo.ENU {
	if pf.b == nil {
		return c
	}
	min, max, ok := pf.b.Bounds(0)
	if !ok {
		return c
	}
	const inset = 0.5
	c.East = math.Min(math.Max(c.East, min.East+inset), max.East-inset)
	c.North = math.Min(math.Max(c.North, min.North+inset), max.North-inset)
	return c
}

func (pf *ParticleFilter) drawNear(c geo.ENU, sigma float64) geo.ENU {
	for attempt := 0; attempt < 8; attempt++ {
		p := geo.ENU{
			East:  c.East + pf.rng.NormFloat64()*sigma,
			North: c.North + pf.rng.NormFloat64()*sigma,
		}
		if pf.b == nil {
			return p
		}
		if _, ok := pf.b.RoomAt(p, 0); ok {
			return p
		}
	}
	return c
}

// predict diffuses particles; moves that cross a wall kill the particle
// (weight zero) — the location-model constraint of §3.2.
func (pf *ParticleFilter) predict(dt float64) {
	if dt <= 0 {
		return
	}
	step := motionSigma * math.Sqrt(dt)
	for i := range pf.particles {
		p := &pf.particles[i]
		next := geo.ENU{
			East:  p.Pos.East + pf.rng.NormFloat64()*step,
			North: p.Pos.North + pf.rng.NormFloat64()*step,
		}
		if pf.b != nil && pf.b.Crosses(p.Pos, next, 0) {
			p.W = 0
			continue
		}
		p.Pos = next
	}
}

// weight multiplies particle weights by the measurement likelihood —
// from the Channel Feature when wired, else the accuracy-based
// fallback. It returns the mean likelihood over live particles, the
// divergence signal used for sensor resetting.
func (pf *ParticleFilter) weight(port int, measured geo.ENU, pos positioning.Position) float64 {
	source := pf.likelihoods[port]
	var sum float64
	var alive int
	for i := range pf.particles {
		p := &pf.particles[i]
		if p.W == 0 {
			continue
		}
		var l float64
		if source != nil {
			l = source.Likelihood(p.Pos, measured)
		} else {
			l = pf.fallback.score(p.Pos, measured, pos)
		}
		p.W *= l
		sum += l
		alive++
	}
	if alive == 0 {
		return 0
	}
	return sum / float64(alive)
}

// normalise scales weights to sum 1; returns false when the population
// is degenerate.
func (pf *ParticleFilter) normalise() bool {
	var sum float64
	for _, p := range pf.particles {
		sum += p.W
	}
	if sum <= 1e-300 {
		return false
	}
	for i := range pf.particles {
		pf.particles[i].W /= sum
	}
	return true
}

func (pf *ParticleFilter) effectiveN() float64 {
	var sumSq float64
	for _, p := range pf.particles {
		sumSq += p.W * p.W
	}
	if sumSq == 0 {
		return 0
	}
	return 1 / sumSq
}

// systematicResample draws a fresh equally-weighted population with
// systematic (low-variance) resampling.
func (pf *ParticleFilter) systematicResample() {
	n := len(pf.particles)
	out := make([]Particle, 0, n)
	step := 1.0 / float64(n)
	u := pf.rng.Float64() * step
	var cum float64
	idx := 0
	for i := 0; i < n; i++ {
		target := u + float64(i)*step
		for cum+pf.particles[idx].W < target && idx < n-1 {
			cum += pf.particles[idx].W
			idx++
		}
		out = append(out, Particle{Pos: pf.particles[idx].Pos, W: step})
	}
	pf.particles = out
	pf.resample++
}

// estimate returns the weighted mean and RMS spread of the population.
func (pf *ParticleFilter) estimate() (geo.ENU, float64) {
	var e, n float64
	for _, p := range pf.particles {
		e += p.W * p.Pos.East
		n += p.W * p.Pos.North
	}
	mean := geo.ENU{East: e, North: n}
	var spread float64
	for _, p := range pf.particles {
		d := p.Pos.Distance(mean)
		spread += p.W * d * d
	}
	return mean, math.Sqrt(spread)
}
