// Package trace provides ground-truth movement for the experiment
// suite: movement generators (corridor walks, commutes, outdoor tracks,
// pause-and-go, multimodal trips). The simulated sensors (gps.Receiver,
// wifi.Sensor) replay these traces.
package trace

import (
	"time"

	"perpos/internal/geo"
)

// Point is one ground-truth sample of a moving target.
type Point struct {
	// Time is the simulated wall-clock instant.
	Time time.Time `json:"time"`
	// Local is the position in building-local ENU metres.
	Local geo.ENU `json:"local"`
	// Global is the WGS84 position.
	Global geo.Point `json:"global"`
	// Speed is the instantaneous ground speed in m/s.
	Speed float64 `json:"speed"`
	// Heading is the course in degrees clockwise from north.
	Heading float64 `json:"heading"`
	// RoomID is the occupied room, or "" when outdoors / unresolved.
	RoomID string `json:"roomId,omitempty"`
	// Indoor reports whether the target is inside a building.
	Indoor bool `json:"indoor,omitempty"`
	// Mode labels the ground-truth transportation mode ("still",
	// "walk", "bike", "drive"), when the generator annotates one.
	Mode string `json:"mode,omitempty"`
}

// Trace is a time-ordered ground-truth path.
type Trace struct {
	// Name labels the trace in experiment output.
	Name string `json:"name"`
	// Origin is the WGS84 anchor of the local frame.
	Origin geo.Point `json:"origin"`
	// Points are the samples in time order.
	Points []Point `json:"points"`
}

// Len returns the number of points.
func (t *Trace) Len() int { return len(t.Points) }

// Duration returns the time covered by the trace.
func (t *Trace) Duration() time.Duration {
	if len(t.Points) < 2 {
		return 0
	}
	return t.Points[len(t.Points)-1].Time.Sub(t.Points[0].Time)
}

// At returns the ground-truth position at time ts by linear
// interpolation between the surrounding points. Times outside the trace
// clamp to the ends.
func (t *Trace) At(ts time.Time) (Point, bool) {
	if len(t.Points) == 0 {
		return Point{}, false
	}
	if !ts.After(t.Points[0].Time) {
		return t.Points[0], true
	}
	last := t.Points[len(t.Points)-1]
	if !ts.Before(last.Time) {
		return last, true
	}
	// Binary search for the first point at or after ts.
	lo, hi := 0, len(t.Points)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.Points[mid].Time.Before(ts) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b := t.Points[lo]
	a := t.Points[lo-1]
	span := b.Time.Sub(a.Time)
	if span <= 0 {
		return b, true
	}
	f := float64(ts.Sub(a.Time)) / float64(span)
	p := a
	p.Time = ts
	p.Local = geo.ENU{
		East:  a.Local.East + f*(b.Local.East-a.Local.East),
		North: a.Local.North + f*(b.Local.North-a.Local.North),
	}
	p.Global = geo.Point{
		Lat: a.Global.Lat + f*(b.Global.Lat-a.Global.Lat),
		Lon: a.Global.Lon + f*(b.Global.Lon-a.Global.Lon),
	}
	p.Speed = a.Speed + f*(b.Speed-a.Speed)
	return p, true
}

// TotalDistance returns the summed local path length in metres.
func (t *Trace) TotalDistance() float64 {
	total := 0.0
	for i := 1; i < len(t.Points); i++ {
		total += t.Points[i].Local.Distance(t.Points[i-1].Local)
	}
	return total
}
