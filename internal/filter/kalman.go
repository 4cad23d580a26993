package filter

import (
	"math"
	"time"

	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/positioning"
)

// KalmanFilter is a constant-velocity 2D Kalman filter — the classic
// smoother a transparent middleware lets a developer build: it can use
// the position stream and the reported accuracy, but none of the
// translucent seams (HDOP data trees, building walls) the particle
// filter exploits. It serves as the strongest seam-blind baseline in
// the E5 comparison.
//
// State is [e, n, ve, vn] with independent axes; the implementation
// exploits that independence and runs two 2-state filters.
type KalmanFilter struct {
	id string
	// processNoise is the acceleration-driven process noise (m/s^2).
	processNoise float64
	// proj projects global-only positions into a local metric frame;
	// nil means only positions with HasLocal are usable.
	proj *geo.Projection

	east, north axisKF
	initialized bool
	lastTime    time.Time
	emitted     int
}

// axisKF is a 1D position+velocity Kalman filter.
type axisKF struct {
	x, v float64 // state
	// covariance
	pxx, pxv, pvv float64
}

var _ core.Component = (*KalmanFilter)(nil)

// NewKalmanFilter returns a Kalman filter component. processNoise <= 0
// defaults to 0.5 m/s^2 (pedestrian manoeuvring). proj (optional)
// projects global-only positions into the local frame.
func NewKalmanFilter(id string, processNoise float64, proj *geo.Projection) *KalmanFilter {
	if processNoise <= 0 {
		processNoise = 0.5
	}
	return &KalmanFilter{id: id, processNoise: processNoise, proj: proj}
}

// ID implements core.Component.
func (k *KalmanFilter) ID() string { return k.id }

// Spec implements core.Component.
func (k *KalmanFilter) Spec() core.Spec {
	return core.Spec{
		Name: "KalmanFilter",
		Inputs: []core.PortSpec{{
			Name:    "position",
			Accepts: []core.Kind{positioning.KindPosition},
		}},
		Output: core.OutputSpec{Kind: positioning.KindPosition},
	}
}

// Process implements core.Component.
func (k *KalmanFilter) Process(_ int, in core.Sample, emit core.Emit) error {
	pos, ok := in.Payload.(positioning.Position)
	if !ok {
		return nil
	}
	local := pos.Local
	switch {
	case pos.HasLocal:
	case k.proj != nil:
		local = k.proj.ToLocal(pos.Global)
	default:
		// No metric frame available; the baseline cannot use this.
		return nil
	}
	sigma := pos.Accuracy
	if sigma <= 0 {
		sigma = 10
	}
	r := sigma * sigma

	if !k.initialized {
		k.east = axisKF{x: local.East, pxx: r, pvv: 4}
		k.north = axisKF{x: local.North, pxx: r, pvv: 4}
		k.initialized = true
		k.lastTime = in.Time
	}
	dt := in.Time.Sub(k.lastTime).Seconds()
	if dt < 0 {
		dt = 0
	}
	if dt > 30 {
		dt = 30
	}
	k.lastTime = in.Time

	k.east.step(dt, k.processNoise, local.East, r)
	k.north.step(dt, k.processNoise, local.North, r)

	est := geo.ENU{East: k.east.x, North: k.north.x}
	global := pos.Global
	if k.proj != nil {
		global = k.proj.ToGlobal(est)
	}
	out := positioning.Position{
		Time:     in.Time,
		Global:   global,
		Local:    est,
		HasLocal: true,
		Floor:    pos.Floor,
		Accuracy: math.Sqrt((k.east.pxx + k.north.pxx) / 2),
		Source:   "kalman",
	}
	k.emitted++
	emit(core.NewSample(positioning.KindPosition, out, in.Time))
	return nil
}

// step runs one predict+update cycle on a single axis.
func (a *axisKF) step(dt, q, z, r float64) {
	// Predict: x += v*dt; covariance per constant-velocity model with
	// white-acceleration noise q^2.
	if dt > 0 {
		a.x += a.v * dt
		q2 := q * q
		dt2 := dt * dt
		a.pxx += 2*dt*a.pxv + dt2*a.pvv + q2*dt2*dt2/4
		a.pxv += dt*a.pvv + q2*dt2*dt/2
		a.pvv += q2 * dt2
	}
	// Update with measurement z, variance r.
	s := a.pxx + r
	kx := a.pxx / s
	kv := a.pxv / s
	innov := z - a.x
	a.x += kx * innov
	a.v += kv * innov
	pxx, pxv, pvv := a.pxx, a.pxv, a.pvv
	a.pxx = (1 - kx) * pxx
	a.pxv = (1 - kx) * pxv
	a.pvv = pvv - kv*pxv
}
