package trace

import (
	"math"
	"math/rand"
	"time"

	"perpos/internal/building"
	"perpos/internal/geo"
)

// WalkingSpeed is the default pedestrian speed in m/s.
const WalkingSpeed = 1.2

// traceStart is the common simulated start instant for generated traces.
var traceStart = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

// CorridorWalk generates an indoor walk through the evaluation building:
// the target starts in the corridor and visits `visits` randomly chosen
// offices, routing through doors and along the corridor (never through
// walls), dwelling briefly in each office. Points are annotated with the
// occupied room. This is the ground truth for the Fig. 6 particle-filter
// experiment.
func CorridorWalk(b *building.Building, seed int64, visits int, dt time.Duration) *Trace {
	rng := rand.New(rand.NewSource(seed))
	floor, ok := b.Floor(0)
	if !ok || len(floor.Rooms) == 0 {
		return &Trace{Name: "corridor-walk", Origin: b.Origin()}
	}

	corridor, _, hasCorridor := b.RoomByID("corridor")
	corridorY := 6.0
	if hasCorridor {
		corridorY = corridor.Center().North
	}

	var offices []building.Room
	for _, r := range floor.Rooms {
		if r.ID != "corridor" {
			offices = append(offices, r)
		}
	}

	w := newWalker(b, traceStart, dt)
	start := geo.ENU{East: 2, North: corridorY}
	w.teleport(start)

	current := start
	for v := 0; v < visits; v++ {
		target := offices[rng.Intn(len(offices))]
		// Interior point of the target office, away from the walls.
		inset := geo.ENU{
			East:  target.Min.East + 1 + rng.Float64()*(target.Width()-2),
			North: target.Min.North + 1 + rng.Float64()*(target.Depth()-2),
		}
		waypoints := []geo.ENU{
			{East: current.East, North: corridorY},
			{East: target.Door.East, North: corridorY},
			target.Door,
			inset,
		}
		w.walk(waypoints, WalkingSpeed)
		w.dwell(time.Duration(2+rng.Intn(4)) * time.Second)
		// Back to the door for the next leg.
		w.walk([]geo.ENU{target.Door}, WalkingSpeed)
		current = target.Door
	}
	return &Trace{Name: "corridor-walk", Origin: b.Origin(), Points: w.points}
}

// Commute generates the outdoor->indoor handover trace for the Room
// Number application (Fig. 1): approach the building entrance from
// `approach` metres west, walk in through the entrance, then east along
// the corridor and into an office.
func Commute(b *building.Building, seed int64, approach float64, dt time.Duration) *Trace {
	rng := rand.New(rand.NewSource(seed))
	corridor, _, _ := b.RoomByID("corridor")
	corridorY := corridor.Center().North

	w := newWalker(b, traceStart, dt)
	startE := -approach
	w.teleport(geo.ENU{East: startE, North: corridorY + 20*(rng.Float64()-0.5)})
	// Outdoor approach with a slight dogleg.
	w.walk([]geo.ENU{
		{East: startE / 2, North: corridorY + 5},
		{East: -2, North: corridorY},
		{East: 1, North: corridorY}, // through the entrance door
	}, WalkingSpeed)
	// Along the corridor and into office N3.
	room, _, ok := b.RoomByID("N3")
	if ok {
		w.walk([]geo.ENU{
			{East: room.Door.East, North: corridorY},
			room.Door,
			room.Center(),
		}, WalkingSpeed)
		w.dwell(5 * time.Second)
	}
	return &Trace{Name: "commute", Origin: b.Origin(), Points: w.points}
}

// OutdoorTrack generates an outdoor waypoint track around the origin:
// `waypoints` legs within a box of the given radius (metres), at the
// given speed. Used by the EnTracked energy experiments.
func OutdoorTrack(origin geo.Point, seed int64, waypoints int, radius, speed float64, dt time.Duration) *Trace {
	rng := rand.New(rand.NewSource(seed))
	proj := geo.NewProjection(origin)
	w := &walker{proj: proj, now: traceStart, dt: dt}
	start := geo.ENU{East: 0, North: 0}
	w.teleport(start)
	for i := 0; i < waypoints; i++ {
		next := geo.ENU{
			East:  (rng.Float64()*2 - 1) * radius,
			North: (rng.Float64()*2 - 1) * radius,
		}
		w.walk([]geo.ENU{next}, speed)
	}
	tr := &Trace{Name: "outdoor-track", Origin: origin, Points: w.points}
	return tr
}

// PauseAndGo generates an outdoor trace alternating movement legs and
// stationary periods — the workload where EnTracked's motion model
// saves the most energy (the device sleeps while the target rests).
func PauseAndGo(origin geo.Point, seed int64, legs int, radius, speed float64, pause time.Duration, dt time.Duration) *Trace {
	rng := rand.New(rand.NewSource(seed))
	proj := geo.NewProjection(origin)
	w := &walker{proj: proj, now: traceStart, dt: dt}
	w.teleport(geo.ENU{})
	for i := 0; i < legs; i++ {
		next := geo.ENU{
			East:  (rng.Float64()*2 - 1) * radius,
			North: (rng.Float64()*2 - 1) * radius,
		}
		w.walk([]geo.ENU{next}, speed)
		w.dwell(pause)
	}
	return &Trace{Name: "pause-and-go", Origin: origin, Points: w.points}
}

// walker accumulates trace points while moving along waypoint legs.
type walker struct {
	b    *building.Building // optional: annotates rooms when set
	proj *geo.Projection
	now  time.Time
	dt   time.Duration
	pos  geo.ENU
	mode string // optional ground-truth transportation mode label

	points []Point
}

func newWalker(b *building.Building, start time.Time, dt time.Duration) *walker {
	return &walker{b: b, proj: b.Projection(), now: start, dt: dt}
}

// teleport places the walker without emitting movement.
func (w *walker) teleport(p geo.ENU) {
	w.pos = p
	w.emit(0, 0)
}

// walk moves through the waypoints at the given speed, emitting one
// point every dt.
func (w *walker) walk(waypoints []geo.ENU, speed float64) {
	step := speed * w.dt.Seconds()
	for _, target := range waypoints {
		for {
			d := w.pos.Distance(target)
			if d < 1e-9 {
				break
			}
			heading := headingDeg(w.pos, target)
			if d <= step {
				w.pos = target
				w.advance(speed, heading)
				break
			}
			f := step / d
			w.pos = geo.ENU{
				East:  w.pos.East + f*(target.East-w.pos.East),
				North: w.pos.North + f*(target.North-w.pos.North),
			}
			w.advance(speed, heading)
		}
	}
}

// dwell keeps the walker stationary for the given duration.
func (w *walker) dwell(d time.Duration) {
	steps := int(d / w.dt)
	for i := 0; i < steps; i++ {
		w.advance(0, 0)
	}
}

func (w *walker) advance(speed, heading float64) {
	w.now = w.now.Add(w.dt)
	w.emit(speed, heading)
}

func (w *walker) emit(speed, heading float64) {
	p := Point{
		Time:    w.now,
		Local:   w.pos,
		Global:  w.proj.ToGlobal(w.pos),
		Speed:   speed,
		Heading: heading,
		Mode:    w.mode,
	}
	if w.b != nil {
		if room, ok := w.b.RoomAt(w.pos, 0); ok {
			p.RoomID = room.ID
			p.Indoor = true
		}
	}
	w.points = append(w.points, p)
}

// Multimodal generates an outdoor trip that changes transportation
// mode: still -> walk -> bike -> drive -> walk -> still, each leg with
// speed jitter. Points carry ground-truth Mode labels; the
// transportation-mode pipeline (internal/transport) is evaluated
// against them.
func Multimodal(origin geo.Point, seed int64, dt time.Duration) *Trace {
	rng := rand.New(rand.NewSource(seed))
	proj := geo.NewProjection(origin)
	w := &walker{proj: proj, now: traceStart, dt: dt}
	w.mode = "still"
	w.teleport(geo.ENU{})

	type leg struct {
		mode     string
		speed    float64 // m/s
		distance float64 // metres; 0 means dwell
		dwell    time.Duration
		// stopEvery inserts a short halt (a traffic light) after each
		// stretch of this many metres, keeping the mode label — the
		// within-mode speed flicker that motivates HMM post-processing
		// in [4].
		stopEvery float64
	}
	legs := []leg{
		{mode: "still", dwell: 90 * time.Second},
		{mode: "walk", speed: 1.4, distance: 400},
		{mode: "bike", speed: 4.5, distance: 1500},
		{mode: "drive", speed: 13, distance: 4000, stopEvery: 700},
		{mode: "walk", speed: 1.3, distance: 300},
		{mode: "still", dwell: 60 * time.Second},
	}
	heading := rng.Float64() * 360
	for _, l := range legs {
		w.mode = l.mode
		if l.distance == 0 {
			w.dwell(l.dwell)
			continue
		}
		// Split the leg into hops with gentle turns; halt at "traffic
		// lights" when the leg defines them.
		hopLen := l.distance / 3
		if l.stopEvery > 0 {
			hopLen = l.stopEvery
		}
		remaining := l.distance
		for remaining > 0 {
			hop := math.Min(remaining, hopLen)
			heading += (rng.Float64() - 0.5) * 60
			rad := heading * math.Pi / 180
			target := geo.ENU{
				East:  w.pos.East + hop*math.Sin(rad),
				North: w.pos.North + hop*math.Cos(rad),
			}
			speed := l.speed * (1 + 0.1*(rng.Float64()-0.5))
			w.walk([]geo.ENU{target}, speed)
			remaining -= hop
			if l.stopEvery > 0 && remaining > 0 {
				w.dwell(time.Duration(20+rng.Intn(25)) * time.Second)
			}
		}
	}
	return &Trace{Name: "multimodal", Origin: origin, Points: w.points}
}

// headingDeg returns the compass heading from a to b in degrees.
func headingDeg(a, b geo.ENU) float64 {
	h := math.Atan2(b.East-a.East, b.North-a.North) * 180 / math.Pi
	if h < 0 {
		h += 360
	}
	return h
}
