package filter

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"perpos/internal/core"
)

// StateAccess implementations for the filter components: the seam the
// checkpoint subsystem uses to carry a session's estimation state across
// eviction and process death. The Kalman filter round-trips exactly; the
// particle filter round-trips its population but not its RNG (math/rand
// internals are not serializable), so it is reseeded deterministically
// from the config seed and the emission count — resumed runs stay inside
// the filter's own convergence bounds rather than being bit-identical.

var (
	_ core.StateAccess = (*KalmanFilter)(nil)
	_ core.StateAccess = (*ParticleFilter)(nil)
)

// axisState mirrors axisKF with JSON tags.
type axisState struct {
	X   float64 `json:"x"`
	V   float64 `json:"v"`
	Pxx float64 `json:"pxx"`
	Pxv float64 `json:"pxv"`
	Pvv float64 `json:"pvv"`
}

func axisStateOf(a axisKF) axisState {
	return axisState{X: a.x, V: a.v, Pxx: a.pxx, Pxv: a.pxv, Pvv: a.pvv}
}

func (s axisState) axisKF() axisKF {
	return axisKF{x: s.X, v: s.V, pxx: s.Pxx, pxv: s.Pxv, pvv: s.Pvv}
}

type kalmanState struct {
	East        axisState `json:"east"`
	North       axisState `json:"north"`
	Initialized bool      `json:"initialized"`
	LastTime    time.Time `json:"last_time"`
	Emitted     int       `json:"emitted"`
}

// MarshalState implements core.StateAccess.
func (k *KalmanFilter) MarshalState() ([]byte, error) {
	return json.Marshal(kalmanState{
		East:        axisStateOf(k.east),
		North:       axisStateOf(k.north),
		Initialized: k.initialized,
		LastTime:    k.lastTime,
		Emitted:     k.emitted,
	})
}

// UnmarshalState implements core.StateAccess.
func (k *KalmanFilter) UnmarshalState(data []byte) error {
	var st kalmanState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	k.east = st.East.axisKF()
	k.north = st.North.axisKF()
	k.initialized = st.Initialized
	k.lastTime = st.LastTime
	k.emitted = st.Emitted
	return nil
}

// particleState carries the population and counters. Positions are
// rounded through JSON floats, which is lossless for float64.
type particleState struct {
	Particles   []Particle `json:"particles"`
	Initialized bool       `json:"initialized"`
	LastTime    time.Time  `json:"last_time"`
	Emitted     int        `json:"emitted"`
	Resample    int        `json:"resample"`
	Reinit      int        `json:"reinit"`
}

// MarshalState implements core.StateAccess.
func (pf *ParticleFilter) MarshalState() ([]byte, error) {
	return json.Marshal(particleState{
		Particles:   pf.Particles(),
		Initialized: pf.initialized,
		LastTime:    pf.lastTime,
		Emitted:     pf.emitted,
		Resample:    pf.resample,
		Reinit:      pf.reinit,
	})
}

// UnmarshalState implements core.StateAccess. The RNG restarts from a
// stream derived from the config seed and the emission count, so two
// resumes of the same checkpoint behave identically even though the
// pre-crash random stream cannot be recovered. It refuses a population
// of another size than the configured count (none before the first
// fix), since the filter resamples to the size it holds and would keep
// it, and a negative weight, which systematic resampling cannot draw
// from. (JSON carries no NaN or infinity: the decode refuses those.)
func (pf *ParticleFilter) UnmarshalState(data []byte) error {
	var st particleState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	want := 0
	if st.Initialized {
		want = pf.cfg.Particles
	}
	if len(st.Particles) != want {
		return fmt.Errorf("filter: restored population holds %d particles, want %d", len(st.Particles), want)
	}
	for i, p := range st.Particles {
		if p.W < 0 {
			return fmt.Errorf("filter: restored particle %d has weight %v", i, p.W)
		}
	}
	pf.particles = st.Particles
	pf.initialized = st.Initialized
	pf.lastTime = st.LastTime
	pf.emitted = st.Emitted
	pf.resample = st.Resample
	pf.reinit = st.Reinit
	pf.rng = resumedRNG(pf.cfg.Seed, st.Emitted)
	return nil
}

// resumedRNG derives the restart stream: distinct per (seed, emitted)
// pair so every resume point gets an independent but reproducible
// sequence.
func resumedRNG(seed int64, emitted int) *rand.Rand {
	const mix = 0x5851F42D4C957F2D // odd 63-bit mixing constant
	return rand.New(rand.NewSource(seed ^ (int64(emitted)+1)*mix))
}
