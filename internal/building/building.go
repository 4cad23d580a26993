// Package building models the symbolic and geometric space the indoor
// subsystems run against: buildings with floors, rectangular rooms,
// walls and doors, anchored to the globe by a local ENU projection.
//
// It is the location-model substrate of §3.2 (the particle filter's
// wall constraint), the Resolver component of Fig. 1 (position → room
// ID), the WiFi propagation model (walls attenuate signals) and the
// trace generators (ground truth annotated with occupied rooms).
//
// Point→room resolution (RoomAt) sits on the hot path of trace
// emulation and the room-number pipeline — it runs once per emitted
// position sample — so every floor carries a uniform-grid spatial
// index over its rooms instead of scanning the room list.
package building

import (
	"fmt"
	"math"

	"perpos/internal/geo"
)

// Wall is one solid segment of a floor plan, in floor-local ENU
// metres. Door openings are represented as gaps between walls, not as
// wall attributes.
type Wall struct {
	A, B geo.ENU
}

// Room is an axis-aligned rectangular room on one floor.
//
// Containment is half-open: a point on a room's Min edge belongs to
// that room, a point on its Max edge belongs to the neighbour beyond
// it (if any). This keeps RoomAt deterministic for points lying
// exactly on a shared wall — every interior boundary point resolves to
// exactly one room.
type Room struct {
	// ID is the symbolic room identifier (e.g. "corridor", "N3"; on
	// upper floors of multi-storey buildings IDs are prefixed with the
	// level, e.g. "1-N3").
	ID string
	// Min and Max are the rectangle's corners: Min is the south-west
	// corner, Max the north-east one.
	Min, Max geo.ENU
	// Door is the midpoint of the room's door opening, on the room
	// boundary.
	Door geo.ENU
}

// Center returns the room's geometric centre.
func (r Room) Center() geo.ENU {
	return geo.ENU{
		East:  (r.Min.East + r.Max.East) / 2,
		North: (r.Min.North + r.Max.North) / 2,
	}
}

// Width returns the east-west extent in metres.
func (r Room) Width() float64 { return r.Max.East - r.Min.East }

// Depth returns the north-south extent in metres.
func (r Room) Depth() float64 { return r.Max.North - r.Min.North }

// Contains reports whether p lies in the room's half-open extent
// [Min, Max).
func (r Room) Contains(p geo.ENU) bool {
	return p.East >= r.Min.East && p.East < r.Max.East &&
		p.North >= r.Min.North && p.North < r.Max.North
}

// Floor is one storey of a building: its rooms, its walls and a
// spatial index over the rooms.
type Floor struct {
	// Level is the storey number (0 = ground).
	Level int
	// Rooms are the floor's rooms.
	Rooms []Room
	// Walls are the solid segments of the floor plan (door openings
	// are gaps).
	Walls []Wall

	min, max geo.ENU
	segs     []wallSeg
	index    *roomGrid
}

// NewFloor returns a floor with its bounds and spatial index computed
// from the given rooms and walls.
func NewFloor(level int, rooms []Room, walls []Wall) *Floor {
	f := &Floor{Level: level, Rooms: rooms, Walls: walls}
	if len(rooms) > 0 {
		f.min = rooms[0].Min
		f.max = rooms[0].Max
		for _, r := range rooms[1:] {
			f.min.East = math.Min(f.min.East, r.Min.East)
			f.min.North = math.Min(f.min.North, r.Min.North)
			f.max.East = math.Max(f.max.East, r.Max.East)
			f.max.North = math.Max(f.max.North, r.Max.North)
		}
	}
	f.segs = make([]wallSeg, len(walls))
	for i, w := range walls {
		f.segs[i] = newWallSeg(w)
	}
	f.index = newRoomGrid(f)
	return f
}

// RoomAt returns the room containing p, using the floor's grid index.
func (f *Floor) RoomAt(p geo.ENU) (Room, bool) {
	i, ok := f.index.lookup(p)
	if !ok {
		return Room{}, false
	}
	return f.Rooms[i], true
}

// roomAtLinear is the naive scan RoomAt replaces; it exists as the
// baseline for BenchmarkRoomAt.
func (f *Floor) roomAtLinear(p geo.ENU) (Room, bool) {
	for _, r := range f.Rooms {
		if r.Contains(p) {
			return r, true
		}
	}
	return Room{}, false
}

// Building is a deployment site: one or more floors sharing a local
// coordinate frame anchored at a WGS84 origin.
type Building struct {
	name   string
	origin geo.Point
	proj   *geo.Projection
	floors []*Floor
	byID   map[string]roomRef
}

type roomRef struct {
	floor int // index into floors
	room  int // index into Rooms
}

// New returns a building with the given floors. The origin anchors the
// local ENU frame: local (0, 0) is the building's south-west corner.
func New(name string, origin geo.Point, floors ...*Floor) *Building {
	b := &Building{
		name:   name,
		origin: origin,
		proj:   geo.NewProjection(origin),
		floors: floors,
		byID:   make(map[string]roomRef),
	}
	for fi, f := range floors {
		for ri, r := range f.Rooms {
			b.byID[r.ID] = roomRef{floor: fi, room: ri}
		}
	}
	return b
}

// String renders a one-line summary.
func (b *Building) String() string {
	rooms := 0
	for _, f := range b.floors {
		rooms += len(f.Rooms)
	}
	var w, d float64
	if len(b.floors) > 0 {
		w = b.floors[0].max.East - b.floors[0].min.East
		d = b.floors[0].max.North - b.floors[0].min.North
	}
	return fmt.Sprintf("%s: %d floor(s), %d rooms, %.0fx%.0f m", b.name, len(b.floors), rooms, w, d)
}

// Origin returns the WGS84 anchor of the local frame.
func (b *Building) Origin() geo.Point { return b.origin }

// Projection returns the local ENU ↔ WGS84 projection anchored at the
// building origin.
func (b *Building) Projection() *geo.Projection { return b.proj }

// Floor returns the storey at the given level, or false for unknown
// levels.
func (b *Building) Floor(level int) (*Floor, bool) {
	if level < 0 || level >= len(b.floors) {
		return nil, false
	}
	return b.floors[level], true
}

// Bounds returns the floor's extent in local metres, or false for
// unknown levels.
func (b *Building) Bounds(level int) (min, max geo.ENU, ok bool) {
	f, ok := b.Floor(level)
	if !ok {
		return geo.ENU{}, geo.ENU{}, false
	}
	return f.min, f.max, true
}

// RoomByID returns the room with the given ID and its floor level, or
// false when no floor has it.
func (b *Building) RoomByID(id string) (Room, int, bool) {
	ref, ok := b.byID[id]
	if !ok {
		return Room{}, 0, false
	}
	return b.floors[ref.floor].Rooms[ref.room], b.floors[ref.floor].Level, true
}

// RoomAt returns the room containing the local point p on the given
// floor. It is grid-indexed: one cell lookup plus at most a couple of
// rectangle tests, independent of the floor's room count.
func (b *Building) RoomAt(p geo.ENU, floor int) (Room, bool) {
	f, ok := b.Floor(floor)
	if !ok {
		return Room{}, false
	}
	return f.RoomAt(p)
}

// Crosses reports whether the segment p→q intersects any wall of the
// given floor. Door openings are wall gaps, so legal movement through
// a door does not cross.
func (b *Building) Crosses(p, q geo.ENU, floor int) bool {
	f, ok := b.Floor(floor)
	if !ok {
		return false
	}
	minE, maxE := math.Min(p.East, q.East), math.Max(p.East, q.East)
	minN, maxN := math.Min(p.North, q.North), math.Max(p.North, q.North)
	for i := range f.segs {
		s := &f.segs[i]
		if s.maxE < minE || s.minE > maxE || s.maxN < minN || s.minN > maxN {
			continue
		}
		if segmentsIntersect(p, q, s.a, s.b) {
			return true
		}
	}
	return false
}

// WallsBetween counts the walls the segment p→q passes through on the
// given floor — the attenuation input of the WiFi propagation model.
func (b *Building) WallsBetween(p, q geo.ENU, floor int) int {
	f, ok := b.Floor(floor)
	if !ok {
		return 0
	}
	minE, maxE := math.Min(p.East, q.East), math.Max(p.East, q.East)
	minN, maxN := math.Min(p.North, q.North), math.Max(p.North, q.North)
	n := 0
	for i := range f.segs {
		s := &f.segs[i]
		if s.maxE < minE || s.minE > maxE || s.maxN < minN || s.minN > maxN {
			continue
		}
		if segmentsIntersect(p, q, s.a, s.b) {
			n++
		}
	}
	return n
}

// wallSeg is a wall with its precomputed bounding box, kept in a flat
// slice for cache-friendly crossing tests.
type wallSeg struct {
	a, b                   geo.ENU
	minE, maxE, minN, maxN float64
}

func newWallSeg(w Wall) wallSeg {
	return wallSeg{
		a:    w.A,
		b:    w.B,
		minE: math.Min(w.A.East, w.B.East),
		maxE: math.Max(w.A.East, w.B.East),
		minN: math.Min(w.A.North, w.B.North),
		maxN: math.Max(w.A.North, w.B.North),
	}
}

// cross2 returns the z component of (b-a) × (c-a): positive when c is
// left of a→b, zero when collinear.
func cross2(a, b, c geo.ENU) float64 {
	return (b.East-a.East)*(c.North-a.North) - (b.North-a.North)*(c.East-a.East)
}

// onSegment reports whether collinear point c lies within segment ab's
// bounding box.
func onSegment(a, b, c geo.ENU) bool {
	return c.East >= math.Min(a.East, b.East) && c.East <= math.Max(a.East, b.East) &&
		c.North >= math.Min(a.North, b.North) && c.North <= math.Max(a.North, b.North)
}

// segmentsIntersect reports whether segments p1p2 and q1q2 intersect,
// including endpoint touches and collinear overlap (grazing a wall
// counts as hitting it).
func segmentsIntersect(p1, p2, q1, q2 geo.ENU) bool {
	d1 := cross2(q1, q2, p1)
	d2 := cross2(q1, q2, p2)
	d3 := cross2(p1, p2, q1)
	d4 := cross2(p1, p2, q2)

	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(q1, q2, p1):
		return true
	case d2 == 0 && onSegment(q1, q2, p2):
		return true
	case d3 == 0 && onSegment(p1, p2, q1):
		return true
	case d4 == 0 && onSegment(p1, p2, q2):
		return true
	}
	return false
}
