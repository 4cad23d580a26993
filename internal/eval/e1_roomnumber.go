package eval

import (
	"fmt"
	"time"

	"perpos/internal/building"
	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/trace"
	"perpos/internal/wifi"
)

// E1Config parameterizes the Room Number experiment.
type E1Config struct {
	// Seed drives trace and sensor noise.
	Seed int64
	// Approach is the outdoor approach distance in metres.
	Approach float64
}

func (c E1Config) withDefaults() E1Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Approach <= 0 {
		c.Approach = 150
	}
	return c
}

// BuildFig1 wires Fig. 1's Room Number application over a commute
// trace that starts approach metres outside the building: GPS ->
// Parser -> Interpreter feeds the application's port 0 with WGS84
// points for the map, and WiFi -> Positioning -> Resolver its port 1
// with room IDs. The application hands every sample it receives to
// onInput with the port. It returns the graph and the trace it replays.
func BuildFig1(seed int64, approach float64, onInput func(port int, in core.Sample)) (*core.Graph, *trace.Trace, error) {
	b := building.Evaluation()
	tr := trace.Commute(b, seed, approach, 500*time.Millisecond)
	network := wifi.DefaultDeployment(b)
	db := wifi.Survey(network, 0, wifi.SurveyConfig{Seed: seed + 1})

	g := core.New()
	comps := []core.Component{
		gps.NewReceiver("gps", tr, gps.Config{Seed: seed + 2, ColdStart: 2 * time.Second}),
		gps.NewParser("parser"),
		gps.NewInterpreter("interpreter", 0),
		wifi.NewSensor("wifi", network, tr, 2*time.Second, seed+3),
		wifi.NewEngine("positioning", db, b, 3),
		wifi.NewResolver("resolver", b),
		&core.FuncComponent{
			CompID: "app",
			CompSpec: core.Spec{
				Name: "RoomNumberApp",
				Inputs: []core.PortSpec{
					{Name: "gps", Accepts: []core.Kind{positioning.KindPosition}},
					{Name: "room", Accepts: []core.Kind{positioning.KindRoom}},
				},
			},
			Fn: func(port int, in core.Sample, _ core.Emit) error {
				onInput(port, in)
				return nil
			},
		},
	}
	for _, c := range comps {
		if _, err := g.Add(c); err != nil {
			return nil, nil, err
		}
	}
	for _, c := range []struct {
		from, to string
		port     int
	}{
		{"gps", "parser", 0},
		{"parser", "interpreter", 0},
		{"interpreter", "app", 0},
		{"wifi", "positioning", 0},
		{"positioning", "resolver", 0},
		{"resolver", "app", 1},
	} {
		if err := g.Connect(c.from, c.to, c.port); err != nil {
			return nil, nil, err
		}
	}
	return g, tr, nil
}

// RunE1 reproduces Fig. 1 and the intro application: a commute trace
// drives both the GPS pipeline (outdoor point on a map) and the WiFi
// pipeline (indoor room highlighting). The application prefers room
// output when the WiFi system delivers it and falls back to GPS
// positions outdoors. Reported: outdoor position error, indoor room
// accuracy, and handover behaviour.
func RunE1(cfg E1Config) (Result, error) {
	cfg = cfg.withDefaults()

	// The application: room IDs from the WiFi branch, WGS84 points from
	// the GPS branch.
	type roomAt struct {
		at   time.Time
		room string
	}
	var rooms []roomAt
	var gpsPositions []positioning.Position
	g, tr, err := BuildFig1(cfg.Seed, cfg.Approach, func(port int, in core.Sample) {
		switch port {
		case 0:
			if pos, ok := in.Payload.(positioning.Position); ok {
				gpsPositions = append(gpsPositions, pos)
			}
		case 1:
			if room, ok := in.Payload.(string); ok {
				rooms = append(rooms, roomAt{at: in.Time, room: room})
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	if _, err := g.Run(0); err != nil {
		return Result{}, err
	}

	// Outdoor GPS error: positions while the truth was outdoors.
	proj := geo.NewProjection(tr.Origin)
	var outdoorErrs []float64
	for _, pos := range gpsPositions {
		truth, ok := tr.At(pos.Time)
		if !ok || truth.Indoor {
			continue
		}
		outdoorErrs = append(outdoorErrs, proj.ToLocal(pos.Global).Distance(truth.Local))
	}

	// Indoor room accuracy: room stream vs ground truth.
	var roomHits, roomTotal int
	for _, r := range rooms {
		truth, ok := tr.At(r.at)
		if !ok || !truth.Indoor {
			continue
		}
		roomTotal++
		if truth.RoomID == r.room {
			roomHits++
		}
	}

	// Handover: delay from entering the building until the first room
	// event while indoors. Room events before entering (WiFi heard
	// through the facade) are reported separately — they are a seam of
	// the deployment, not a middleware defect.
	var firstIndoor, firstRoom time.Time
	for _, p := range tr.Points {
		if p.Indoor {
			firstIndoor = p.Time
			break
		}
	}
	var premature int
	for _, r := range rooms {
		if r.at.Before(firstIndoor) {
			premature++
			continue
		}
		if firstRoom.IsZero() {
			firstRoom = r.at
		}
	}

	out := Stats(outdoorErrs)
	res := Result{
		Samples: out.N + len(rooms),
		ID:      "E1",
		Title:   "Room Number application (Fig. 1): GPS outdoors, WiFi room indoors",
		Header:  []string{"metric", "value"},
		Rows: [][]string{
			{"trace duration", tr.Duration().String()},
			{"outdoor GPS fixes", itoa(out.N)},
			{"outdoor mean error (m)", f1(out.Mean)},
			{"outdoor p95 error (m)", f1(out.P95)},
			{"room events", itoa(len(rooms))},
			{"premature room events (outdoor)", itoa(premature)},
			{"indoor room accuracy", pct(safeDiv(roomHits, roomTotal))},
			{"handover delay (s)", f1(firstRoom.Sub(firstIndoor).Seconds())},
		},
	}
	if roomTotal == 0 {
		res.Notes = append(res.Notes, "no indoor room events — experiment invalid")
	}
	if premature > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%d room events fired before entry: WiFi audible through the facade (a seam the app can filter on apCount)", premature))
	}
	return res, nil
}

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
