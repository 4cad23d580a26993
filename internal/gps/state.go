package gps

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"perpos/internal/core"
	"perpos/internal/geo"
)

// StateAccess implementations for the GPS pipeline, the checkpoint
// subsystem's seam into the Fig. 1 components. The receiver reseeds its
// noise RNG deterministically from (Seed, emitted) on restore — noise
// realizations after a resume differ from the uninterrupted run, but
// two resumes of the same checkpoint are identical.

var (
	_ core.StateAccess = (*Receiver)(nil)
	_ core.StateAccess = (*Parser)(nil)
	_ core.StateAccess = (*Interpreter)(nil)
)

type receiverState struct {
	Now         time.Time     `json:"now"`
	Mode        Mode          `json:"mode"`
	OffSince    time.Time     `json:"off_since"`
	AcquireLeft time.Duration `json:"acquire_left"`
	Drift       geo.ENU       `json:"drift"`
	LastSats    int           `json:"last_sats"`
	Emitted     int           `json:"emitted"`
	EpochCount  int           `json:"epoch_count"`
}

// MarshalState implements core.StateAccess: the replay clock, power
// state and drift so a restored receiver continues mid-trace.
func (r *Receiver) MarshalState() ([]byte, error) {
	return json.Marshal(receiverState{
		Now:         r.now,
		Mode:        r.mode,
		OffSince:    r.offSince,
		AcquireLeft: r.acquireLeft,
		Drift:       r.drift,
		LastSats:    r.lastSats,
		Emitted:     r.emitted,
		EpochCount:  r.epochCount,
	})
}

// UnmarshalState implements core.StateAccess. It refuses a mode other
// than Off, Acquiring and Tracking, which Step would neither leave nor
// emit from.
func (r *Receiver) UnmarshalState(data []byte) error {
	var st receiverState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if st.Mode < ModeOff || st.Mode > ModeTracking {
		return fmt.Errorf("gps: restored receiver mode %d is not Off, Acquiring or Tracking", st.Mode)
	}
	r.now = st.Now
	r.mode = st.Mode
	r.offSince = st.OffSince
	r.acquireLeft = st.AcquireLeft
	r.drift = st.Drift
	r.lastSats = st.LastSats
	r.emitted = st.Emitted
	r.epochCount = st.EpochCount
	const mix = 0x5851F42D4C957F2D // odd 63-bit mixing constant
	r.rng = rand.New(rand.NewSource(r.cfg.Seed ^ (int64(st.Emitted)+1)*mix))
	return nil
}

type parserState struct {
	Parsed  int `json:"parsed"`
	Dropped int `json:"dropped"`
}

// MarshalState implements core.StateAccess.
func (p *Parser) MarshalState() ([]byte, error) {
	return json.Marshal(parserState{Parsed: p.parsed, Dropped: p.dropped})
}

// UnmarshalState implements core.StateAccess.
func (p *Parser) UnmarshalState(data []byte) error {
	var st parserState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	p.parsed, p.dropped = st.Parsed, st.Dropped
	return nil
}

type interpreterState struct {
	LastSpeedMS float64 `json:"last_speed_ms"`
	Emitted     int     `json:"emitted"`
}

// MarshalState implements core.StateAccess.
func (i *Interpreter) MarshalState() ([]byte, error) {
	return json.Marshal(interpreterState{LastSpeedMS: i.lastSpeedMS, Emitted: i.emitted})
}

// UnmarshalState implements core.StateAccess.
func (i *Interpreter) UnmarshalState(data []byte) error {
	var st interpreterState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	i.lastSpeedMS, i.emitted = st.LastSpeedMS, st.Emitted
	return nil
}
