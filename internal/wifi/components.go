package wifi

import (
	"math/rand"
	"time"

	"perpos/internal/building"
	"perpos/internal/core"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

// timeZero is the survey timestamp placeholder.
var timeZero = time.Time{}

// Sensor is the WiFi sensor source of Fig. 1: a Producer that walks a
// ground-truth trace and emits a Scan every scan interval. Outside the
// building (no APs heard) it emits empty scans, mirroring a phone
// scanning without infrastructure.
type Sensor struct {
	id      string
	network *Network
	tr      *trace.Trace
	rng     *rand.Rand
	seed    int64
	period  time.Duration

	now     time.Time
	end     time.Time
	stepped int
}

var _ core.Producer = (*Sensor)(nil)

// NewSensor returns a WiFi sensor replaying the given ground truth,
// scanning every period (default 2 s).
func NewSensor(id string, network *Network, tr *trace.Trace, period time.Duration, seed int64) *Sensor {
	if period <= 0 {
		period = 2 * time.Second
	}
	s := &Sensor{
		id:      id,
		network: network,
		tr:      tr,
		rng:     rand.New(rand.NewSource(seed)),
		seed:    seed,
		period:  period,
	}
	if tr.Len() > 0 {
		s.now = tr.Points[0].Time
		s.end = tr.Points[tr.Len()-1].Time
	}
	return s
}

// ID implements core.Component.
func (s *Sensor) ID() string { return s.id }

// Spec implements core.Component.
func (s *Sensor) Spec() core.Spec {
	return core.Spec{
		Name:   "WiFiSensor",
		Output: core.OutputSpec{Kind: KindScan},
	}
}

// Process implements core.Component; sources receive no input.
func (s *Sensor) Process(int, core.Sample, core.Emit) error { return nil }

// Step implements core.Producer.
func (s *Sensor) Step(emit core.Emit) (bool, error) {
	if s.tr.Len() == 0 || s.now.After(s.end) {
		return false, nil
	}
	truth, _ := s.tr.At(s.now)
	scan := s.network.ScanAt(truth.Local, 0, s.now, s.rng)
	emit(core.NewSample(KindScan, scan, s.now))
	s.now = s.now.Add(s.period)
	s.stepped++
	return !s.now.After(s.end), nil
}

// Engine is the WiFi positioning Processing Component of Fig. 1: it
// matches scans against the fingerprint database and emits positions.
// Scans that hear too few APs produce nothing — outdoors the WiFi
// pipeline goes silent and the application falls back to GPS.
type Engine struct {
	id     string
	db     *Database
	b      *building.Building
	k      int
	minAPs int

	located int
}

var _ core.Component = (*Engine)(nil)

// NewEngine returns a positioning engine over the given database.
func NewEngine(id string, db *Database, b *building.Building, k int) *Engine {
	if k <= 0 {
		k = 3
	}
	// Require three audible APs before positioning: fewer means the
	// device is at the fringe (typically outside the building), where
	// k-NN matches are meaningless.
	return &Engine{id: id, db: db, b: b, k: k, minAPs: 3}
}

// ID implements core.Component.
func (e *Engine) ID() string { return e.id }

// Spec implements core.Component.
func (e *Engine) Spec() core.Spec {
	return core.Spec{
		Name:   "WiFiPositioning",
		Inputs: []core.PortSpec{{Name: "scan", Accepts: []core.Kind{KindScan}}},
		Output: core.OutputSpec{Kind: positioning.KindPosition},
	}
}

// Process implements core.Component.
func (e *Engine) Process(_ int, in core.Sample, emit core.Emit) error {
	scan, ok := in.Payload.(*Scan)
	if !ok || len(scan.Readings) < e.minAPs {
		return nil
	}
	est, err := e.db.Locate(scan, e.k)
	if err != nil {
		// Empty database means the engine is mis-deployed; surface it.
		return err
	}
	pos := positioning.Position{
		Time:     in.Time,
		Global:   e.b.Projection().ToGlobal(est.Pos),
		Local:    est.Pos,
		HasLocal: true,
		Floor:    est.Floor,
		Accuracy: est.Accuracy,
		Source:   "wifi",
		RoomID:   est.RoomID,
	}
	e.located++
	out := core.NewSample(positioning.KindPosition, pos, in.Time)
	out = out.WithAttr("apCount", len(scan.Readings))
	emit(out)
	return nil
}

// NewResolver returns the Resolver component of Fig. 1: it maps
// positions to symbolic room IDs using the building model, emitting
// room-ID samples. Positions that resolve to no room (outdoors) are
// dropped.
func NewResolver(id string, b *building.Building) *core.FuncComponent {
	return &core.FuncComponent{
		CompID: id,
		CompSpec: core.Spec{
			Name: "Resolver",
			Inputs: []core.PortSpec{{
				Name:    "position",
				Accepts: []core.Kind{positioning.KindPosition},
			}},
			Output: core.OutputSpec{Kind: positioning.KindRoom},
		},
		Fn: func(_ int, in core.Sample, emit core.Emit) error {
			pos, ok := in.Payload.(positioning.Position)
			if !ok {
				return nil
			}
			roomID := pos.RoomID
			if roomID == "" {
				local := pos.Local
				if !pos.HasLocal {
					local = b.Projection().ToLocal(pos.Global)
				}
				room, found := b.RoomAt(local, pos.Floor)
				if !found {
					return nil
				}
				roomID = room.ID
			}
			emit(core.NewSample(positioning.KindRoom, roomID, in.Time))
			return nil
		},
	}
}
