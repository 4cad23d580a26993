package trace

import (
	"math"
	"testing"
	"time"

	"perpos/internal/building"
	"perpos/internal/geo"
)

var testOrigin = geo.Point{Lat: 56.1629, Lon: 10.2039}

func TestCorridorWalkStaysInsideAndLegal(t *testing.T) {
	b := building.Evaluation()
	tr := CorridorWalk(b, 42, 5, 250*time.Millisecond)
	if tr.Len() < 50 {
		t.Fatalf("trace too short: %d points", tr.Len())
	}

	min, max, _ := b.Bounds(0)
	roomsVisited := map[string]bool{}
	for i, p := range tr.Points {
		if p.Local.East < min.East-0.01 || p.Local.East > max.East+0.01 ||
			p.Local.North < min.North-0.01 || p.Local.North > max.North+0.01 {
			t.Fatalf("point %d at %v escapes the building", i, p.Local)
		}
		if !p.Indoor || p.RoomID == "" {
			t.Fatalf("point %d at %v not annotated with a room", i, p.Local)
		}
		roomsVisited[p.RoomID] = true
		// The ground truth must never pass through a wall.
		if i > 0 && b.Crosses(tr.Points[i-1].Local, p.Local, 0) {
			t.Fatalf("step %d crosses a wall: %v -> %v", i, tr.Points[i-1].Local, p.Local)
		}
	}
	if len(roomsVisited) < 3 {
		t.Errorf("only rooms %v visited, expected at least corridor + 2 offices", roomsVisited)
	}
	if !roomsVisited["corridor"] {
		t.Error("walk never used the corridor")
	}
}

func TestCorridorWalkDeterministic(t *testing.T) {
	b := building.Evaluation()
	a := CorridorWalk(b, 7, 3, time.Second)
	c := CorridorWalk(b, 7, 3, time.Second)
	if a.Len() != c.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), c.Len())
	}
	for i := range a.Points {
		if a.Points[i].Local != c.Points[i].Local {
			t.Fatalf("point %d differs: %v vs %v", i, a.Points[i].Local, c.Points[i].Local)
		}
	}
	d := CorridorWalk(b, 8, 3, time.Second)
	same := a.Len() == d.Len()
	if same {
		same = false
		for i := range a.Points {
			if a.Points[i].Local != d.Points[i].Local {
				same = false
				break
			}
			same = true
		}
	}
	if same {
		t.Error("different seeds produced identical walks")
	}
}

func TestCorridorWalkSpeed(t *testing.T) {
	b := building.Evaluation()
	dt := 500 * time.Millisecond
	tr := CorridorWalk(b, 1, 4, dt)
	maxStep := WalkingSpeed*dt.Seconds() + 1e-9
	for i := 1; i < tr.Len(); i++ {
		step := tr.Points[i].Local.Distance(tr.Points[i-1].Local)
		if step > maxStep {
			t.Fatalf("step %d of %.3f m exceeds max %.3f m", i, step, maxStep)
		}
	}
}

func TestCommuteGoesOutdoorToIndoor(t *testing.T) {
	b := building.Evaluation()
	tr := Commute(b, 3, 150, 500*time.Millisecond)
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	if tr.Points[0].Indoor {
		t.Error("commute should start outdoors")
	}
	last := tr.Points[tr.Len()-1]
	if !last.Indoor || last.RoomID != "N3" {
		t.Errorf("commute should end in N3, got %q indoor=%v", last.RoomID, last.Indoor)
	}
	// It must pass through the corridor on the way.
	sawCorridor := false
	for _, p := range tr.Points {
		if p.RoomID == "corridor" {
			sawCorridor = true
			break
		}
	}
	if !sawCorridor {
		t.Error("commute never in corridor")
	}
}

func TestOutdoorTrackGeometry(t *testing.T) {
	tr := OutdoorTrack(testOrigin, 11, 5, 300, 1.5, time.Second)
	if tr.Len() < 100 {
		t.Fatalf("trace too short: %d", tr.Len())
	}
	for i, p := range tr.Points {
		if math.Abs(p.Local.East) > 301 || math.Abs(p.Local.North) > 301 {
			t.Fatalf("point %d outside radius: %v", i, p.Local)
		}
		if p.Indoor {
			t.Fatalf("outdoor track annotated indoor at %d", i)
		}
	}
	// Global coordinates track the local frame.
	proj := geo.NewProjection(testOrigin)
	for i := 0; i < tr.Len(); i += 50 {
		p := tr.Points[i]
		back := proj.ToLocal(p.Global)
		if math.Abs(back.East-p.Local.East) > 0.05 || math.Abs(back.North-p.Local.North) > 0.05 {
			t.Fatalf("point %d global/local mismatch: %v vs %v", i, back, p.Local)
		}
	}
}

func TestPauseAndGoHasStationaryPeriods(t *testing.T) {
	tr := PauseAndGo(testOrigin, 5, 3, 200, 1.4, 30*time.Second, time.Second)
	stationary := 0
	for _, p := range tr.Points {
		if p.Speed == 0 {
			stationary++
		}
	}
	if stationary < 60 { // 3 pauses x 30 s plus start
		t.Errorf("stationary points = %d, want >= 60", stationary)
	}
}

func TestTraceAtInterpolates(t *testing.T) {
	start := traceStart
	tr := &Trace{
		Origin: testOrigin,
		Points: []Point{
			{Time: start, Local: geo.ENU{East: 0}, Speed: 1},
			{Time: start.Add(10 * time.Second), Local: geo.ENU{East: 10}, Speed: 1},
		},
	}
	p, ok := tr.At(start.Add(5 * time.Second))
	if !ok {
		t.Fatal("At failed")
	}
	if math.Abs(p.Local.East-5) > 1e-9 {
		t.Errorf("interpolated East = %v, want 5", p.Local.East)
	}

	// Clamping at the ends.
	p, _ = tr.At(start.Add(-time.Hour))
	if p.Local.East != 0 {
		t.Errorf("before-start = %v, want first point", p.Local)
	}
	p, _ = tr.At(start.Add(time.Hour))
	if p.Local.East != 10 {
		t.Errorf("after-end = %v, want last point", p.Local)
	}

	empty := &Trace{}
	if _, ok := empty.At(start); ok {
		t.Error("At on empty trace should fail")
	}
}

func TestTraceDurationAndDistance(t *testing.T) {
	b := building.Evaluation()
	tr := CorridorWalk(b, 2, 3, time.Second)
	if tr.Duration() <= 0 {
		t.Error("Duration should be positive")
	}
	if tr.TotalDistance() <= 0 {
		t.Error("TotalDistance should be positive")
	}
	short := &Trace{Points: []Point{{}}}
	if short.Duration() != 0 {
		t.Error("single-point duration should be 0")
	}
}

func TestMultimodalLegs(t *testing.T) {
	tr := Multimodal(testOrigin, 7, time.Second)
	if tr.Len() < 500 {
		t.Fatalf("trace too short: %d", tr.Len())
	}
	modes := map[string]int{}
	transitions := 0
	last := ""
	for _, p := range tr.Points {
		if p.Mode == "" {
			t.Fatal("unlabelled point")
		}
		modes[p.Mode]++
		if last != "" && p.Mode != last {
			transitions++
		}
		last = p.Mode
	}
	for _, want := range []string{"still", "walk", "bike", "drive"} {
		if modes[want] == 0 {
			t.Errorf("no %q points: %v", want, modes)
		}
	}
	if transitions != 5 {
		t.Errorf("transitions = %d, want 5", transitions)
	}
	// The drive leg contains traffic stops: zero-speed points labelled
	// "drive".
	stopped := 0
	for _, p := range tr.Points {
		if p.Mode == "drive" && p.Speed == 0 {
			stopped++
		}
	}
	if stopped < 20 {
		t.Errorf("drive leg has %d stopped points, want >= 20 (traffic lights)", stopped)
	}
	// Deterministic per seed.
	tr2 := Multimodal(testOrigin, 7, time.Second)
	if tr2.Len() != tr.Len() || tr2.Points[tr.Len()-1].Local != tr.Points[tr.Len()-1].Local {
		t.Error("Multimodal not deterministic")
	}
}
