package building

import (
	"math"
	"testing"

	"perpos/internal/geo"
)

func TestEvaluationShape(t *testing.T) {
	b := Evaluation()
	if len(b.floors) != 1 {
		t.Fatalf("floors = %d, want 1", len(b.floors))
	}
	f, ok := b.Floor(0)
	if !ok || len(f.Rooms) != 11 {
		t.Fatalf("ground floor rooms = %d, want 11 (corridor + 10 offices)", len(f.Rooms))
	}
	min, max, ok := b.Bounds(0)
	if !ok {
		t.Fatal("no bounds for floor 0")
	}
	if min != (geo.ENU{}) || max.East != 40 || max.North != 12 {
		t.Errorf("bounds = %v..%v, want (0,0)..(40,12)", min, max)
	}
	corridor, level, ok := b.RoomByID("corridor")
	if !ok || level != 0 {
		t.Fatalf("corridor lookup: ok=%v level=%d", ok, level)
	}
	if c := corridor.Center(); c.East != 20 || c.North != 6 {
		t.Errorf("corridor centre = %v, want (20, 6)", c)
	}
	if corridor.Width() != 40 || corridor.Depth() != 2 {
		t.Errorf("corridor extent = %.1fx%.1f, want 40x2", corridor.Width(), corridor.Depth())
	}
	if b.name == "" || b.String() == "" {
		t.Error("empty Name or String")
	}
}

func TestRoomAtInterior(t *testing.T) {
	b := Evaluation()
	cases := []struct {
		p    geo.ENU
		want string
	}{
		{geo.ENU{East: 20, North: 6}, "corridor"},
		{geo.ENU{East: 4, North: 9}, "N1"},
		{geo.ENU{East: 20, North: 10}, "N3"},
		{geo.ENU{East: 36, North: 11}, "N5"},
		{geo.ENU{East: 12, North: 2}, "S2"},
		{geo.ENU{East: 28, North: 2}, "S4"},
	}
	for _, c := range cases {
		room, ok := b.RoomAt(c.p, 0)
		if !ok || room.ID != c.want {
			t.Errorf("RoomAt(%v) = %q ok=%v, want %q", c.p, room.ID, ok, c.want)
		}
	}
}

// Containment is half-open: a boundary point belongs to the room whose
// Min edge it lies on, so shared walls resolve deterministically.
func TestRoomAtBoundaries(t *testing.T) {
	b := Evaluation()
	cases := []struct {
		name string
		p    geo.ENU
		want string // "" = no room
	}{
		{"on corridor south edge", geo.ENU{East: 20, North: 5}, "corridor"},
		{"on corridor north edge", geo.ENU{East: 20, North: 7}, "N3"},
		{"on N1/N2 divider", geo.ENU{East: 8, North: 9}, "N2"},
		{"on S4/S5 divider", geo.ENU{East: 32, North: 2}, "S5"},
		{"south-west corner", geo.ENU{}, "S1"},
		{"on east perimeter", geo.ENU{East: 40, North: 6}, ""},
		{"on north perimeter", geo.ENU{East: 20, North: 12}, ""},
		{"just outside west", geo.ENU{East: -0.001, North: 6}, ""},
		{"far outside", geo.ENU{East: -500, North: 6}, ""},
	}
	for _, c := range cases {
		room, ok := b.RoomAt(c.p, 0)
		if c.want == "" {
			if ok {
				t.Errorf("%s: RoomAt(%v) = %q, want no room", c.name, c.p, room.ID)
			}
			continue
		}
		if !ok || room.ID != c.want {
			t.Errorf("%s: RoomAt(%v) = %q ok=%v, want %q", c.name, c.p, room.ID, ok, c.want)
		}
	}
}

func TestRoomAtWrongFloor(t *testing.T) {
	b := Evaluation()
	if _, ok := b.RoomAt(geo.ENU{East: 20, North: 6}, 1); ok {
		t.Error("RoomAt on a floor the building does not have")
	}
	if _, ok := b.RoomAt(geo.ENU{East: 20, North: 6}, -1); ok {
		t.Error("RoomAt on a negative floor")
	}
	if _, _, ok := b.Bounds(7); ok {
		t.Error("Bounds for unknown floor")
	}
	if _, ok := b.Floor(7); ok {
		t.Error("Floor for unknown level")
	}
}

// The grid index must agree with the naive scan everywhere, including
// outside the building and on every wall line.
func TestGridMatchesLinearScan(t *testing.T) {
	for _, b := range []*Building{Evaluation(), EvaluationTwoFloors()} {
		for level := 0; level < len(b.floors); level++ {
			f, _ := b.Floor(level)
			for e := -2.0; e <= 42.0; e += 0.25 {
				for n := -2.0; n <= 14.0; n += 0.25 {
					p := geo.ENU{East: e, North: n}
					gr, gok := f.RoomAt(p)
					lr, lok := f.roomAtLinear(p)
					if gok != lok || gr.ID != lr.ID {
						t.Fatalf("floor %d at %v: grid (%q,%v) != linear (%q,%v)",
							level, p, gr.ID, gok, lr.ID, lok)
					}
				}
			}
		}
	}
}

func TestRoomByIDMiss(t *testing.T) {
	b := Evaluation()
	for _, id := range []string{"", "N9", "1-N3", "Corridor"} {
		if room, _, ok := b.RoomByID(id); ok {
			t.Errorf("RoomByID(%q) = %q, want miss", id, room.ID)
		}
	}
}

func TestTwoFloorsDisambiguation(t *testing.T) {
	b := EvaluationTwoFloors()
	if len(b.floors) != 2 {
		t.Fatalf("floors = %d, want 2", len(b.floors))
	}
	p := geo.ENU{East: 20, North: 10} // inside N3's footprint on both floors
	ground, ok := b.RoomAt(p, 0)
	if !ok || ground.ID != "N3" {
		t.Errorf("floor 0: %q ok=%v, want N3", ground.ID, ok)
	}
	upper, ok := b.RoomAt(p, 1)
	if !ok || upper.ID != "1-N3" {
		t.Errorf("floor 1: %q ok=%v, want 1-N3", upper.ID, ok)
	}
	if _, level, ok := b.RoomByID("1-corridor"); !ok || level != 1 {
		t.Errorf("RoomByID(1-corridor): level=%d ok=%v, want level 1", level, ok)
	}
	if _, level, ok := b.RoomByID("corridor"); !ok || level != 0 {
		t.Errorf("RoomByID(corridor): level=%d ok=%v, want level 0", level, ok)
	}
	rooms := 0
	for _, f := range b.floors {
		rooms += len(f.Rooms)
	}
	if rooms != 22 {
		t.Errorf("total rooms = %d, want 22", rooms)
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	b := Evaluation()
	proj := b.Projection()
	if proj.Origin() != b.Origin() {
		t.Fatal("projection not anchored at the building origin")
	}
	for _, p := range []geo.ENU{{}, {East: 20, North: 6}, {East: 40, North: 12}, {East: -150, North: 6}} {
		back := proj.ToLocal(proj.ToGlobal(p))
		if math.Abs(back.East-p.East) > 1e-6 || math.Abs(back.North-p.North) > 1e-6 {
			t.Errorf("round trip %v -> %v drifts more than a micrometre", p, back)
		}
	}
	// The projection must be metrically honest at building scale: the
	// global distance across the building matches the local one to cm.
	a := proj.ToGlobal(geo.ENU{})
	c := proj.ToGlobal(geo.ENU{East: 40, North: 12})
	want := math.Hypot(40, 12)
	if got := a.DistanceTo(c); math.Abs(got-want) > 0.05 {
		t.Errorf("diagonal = %.3f m global vs %.3f m local", got, want)
	}
}

func TestLocateGlobal(t *testing.T) {
	b := Evaluation()
	inN1 := b.Projection().ToGlobal(geo.ENU{East: 4, North: 9})
	room, ok := b.RoomAt(b.proj.ToLocal(inN1), 0)
	if !ok || room.ID != "N1" {
		t.Errorf("RoomAt = %q ok=%v, want N1", room.ID, ok)
	}
	outdoor := b.Projection().ToGlobal(geo.ENU{East: -500})
	if room, ok := b.RoomAt(b.proj.ToLocal(outdoor), 0); ok {
		t.Errorf("RoomAt outdoors = %q, want miss", room.ID)
	}
}

func TestCrossesWallsAndDoors(t *testing.T) {
	b := Evaluation()
	cases := []struct {
		name string
		p, q geo.ENU
		want bool
	}{
		{"through corridor-N3 wall", geo.ENU{East: 18, North: 6}, geo.ENU{East: 18, North: 8}, true},
		{"through N3 door gap", geo.ENU{East: 20, North: 6}, geo.ENU{East: 20, North: 8}, false},
		{"through S2 door gap", geo.ENU{East: 12, North: 6}, geo.ENU{East: 12, North: 4}, false},
		{"along the corridor", geo.ENU{East: 2, North: 6}, geo.ENU{East: 38, North: 6}, false},
		{"through office divider", geo.ENU{East: 7, North: 9}, geo.ENU{East: 9, North: 9}, true},
		{"through the entrance", geo.ENU{East: -2, North: 6}, geo.ENU{East: 2, North: 6}, false},
		{"through west perimeter", geo.ENU{East: -2, North: 9}, geo.ENU{East: 2, North: 9}, true},
		{"inside one office", geo.ENU{East: 17, North: 8}, geo.ENU{East: 23, North: 11}, false},
		{"unknown floor", geo.ENU{East: 18, North: 6}, geo.ENU{East: 18, North: 8}, false},
	}
	for _, c := range cases {
		floor := 0
		if c.name == "unknown floor" {
			floor = 3
		}
		if got := b.Crosses(c.p, c.q, floor); got != c.want {
			t.Errorf("%s: Crosses(%v, %v) = %v, want %v", c.name, c.p, c.q, got, c.want)
		}
	}
}

func TestWallsBetweenCounts(t *testing.T) {
	b := Evaluation()
	cases := []struct {
		name string
		p, q geo.ENU
		want int
	}{
		{"same room", geo.ENU{East: 18, North: 6}, geo.ENU{East: 22, North: 6}, 0},
		{"corridor into N3 past the door", geo.ENU{East: 20, North: 6}, geo.ENU{East: 16.2, North: 9.8}, 1},
		{"N1 to S1 through both corridor walls", geo.ENU{East: 6, North: 9}, geo.ENU{East: 6.2, North: 2}, 2},
		{"N1 to N3 through two dividers", geo.ENU{East: 4, North: 9}, geo.ENU{East: 20, North: 9.5}, 2},
	}
	for _, c := range cases {
		if got := b.WallsBetween(c.p, c.q, 0); got != c.want {
			t.Errorf("%s: WallsBetween = %d, want %d", c.name, got, c.want)
		}
	}
}

// Every room's door must sit on the room boundary, inside a wall gap:
// stepping from the room centre through the door into the corridor
// must be a legal (non-crossing) path on every floor.
func TestDoorsAreUsable(t *testing.T) {
	b := EvaluationTwoFloors()
	for level := 0; level < len(b.floors); level++ {
		f, _ := b.Floor(level)
		corridorN := (corridorLoN + corridorHiN) / 2
		for _, r := range f.Rooms {
			if r.Width() == floorWidth {
				continue // the corridor itself
			}
			inCorridor := geo.ENU{East: r.Door.East, North: corridorN}
			if b.Crosses(r.Center(), r.Door, level) {
				t.Errorf("floor %d %s: centre -> door crosses a wall", level, r.ID)
			}
			if b.Crosses(r.Door, inCorridor, level) {
				t.Errorf("floor %d %s: door -> corridor crosses a wall", level, r.ID)
			}
			// Away from the door gap, the same wall is solid.
			offGap := geo.ENU{East: r.Center().East + 2, North: corridorN}
			if !b.Crosses(r.Center(), offGap, level) {
				t.Errorf("floor %d %s: centre -> corridor away from the door should cross", level, r.ID)
			}
		}
	}
}
