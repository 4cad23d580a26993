// Package geo provides the geodetic primitives used throughout PerPos:
// WGS84 points, great-circle distance and bearing, and a local
// east-north-up (ENU) tangent-plane projection used by the indoor
// subsystems that work in building-local coordinates.
//
// All angles at the API boundary are degrees; all distances are metres.
package geo

import (
	"fmt"
	"math"
)

// EarthRadius is the mean earth radius in metres used for
// great-circle computations.
const EarthRadius = 6371008.8

// Point is a WGS84 coordinate. Alt is metres above the ellipsoid and may
// be zero for 2D fixes.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	Alt float64 `json:"alt,omitempty"`
}

// Valid reports whether p lies within the WGS84 domain.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// String renders the point in a compact human-readable form.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// DistanceTo returns the great-circle distance in metres between p and q
// using the haversine formula, which is accurate to ~0.5% (sufficient for
// positioning-middleware error budgets, which are metres-scale).
func (p Point) DistanceTo(q Point) float64 {
	lat1 := radians(p.Lat)
	lat2 := radians(q.Lat)
	dLat := radians(q.Lat - p.Lat)
	dLon := radians(q.Lon - p.Lon)

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	a := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	return 2 * EarthRadius * math.Asin(math.Min(1, math.Sqrt(a)))
}

// BearingTo returns the initial great-circle bearing from p to q in
// degrees clockwise from true north, normalized to [0, 360).
func (p Point) BearingTo(q Point) float64 {
	lat1 := radians(p.Lat)
	lat2 := radians(q.Lat)
	dLon := radians(q.Lon - p.Lon)

	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	deg := degrees(math.Atan2(y, x))
	return math.Mod(deg+360, 360)
}

// Offset returns the point reached by travelling distance metres from p
// along the given bearing (degrees clockwise from north).
func (p Point) Offset(distance, bearing float64) Point {
	lat1 := radians(p.Lat)
	lon1 := radians(p.Lon)
	brg := radians(bearing)
	d := distance / EarthRadius

	lat2 := math.Asin(math.Sin(lat1)*math.Cos(d) + math.Cos(lat1)*math.Sin(d)*math.Cos(brg))
	lon2 := lon1 + math.Atan2(
		math.Sin(brg)*math.Sin(d)*math.Cos(lat1),
		math.Cos(d)-math.Sin(lat1)*math.Sin(lat2),
	)
	return Point{
		Lat: degrees(lat2),
		Lon: normalizeLon(degrees(lon2)),
		Alt: p.Alt,
	}
}

// ENU is a point in a local east-north-up tangent plane, in metres.
type ENU struct {
	East  float64 `json:"east"`
	North float64 `json:"north"`
	Up    float64 `json:"up,omitempty"`
}

// Distance returns the planar distance in metres between two ENU points,
// ignoring the up component (indoor positioning is per-floor).
func (e ENU) Distance(o ENU) float64 {
	return math.Hypot(e.East-o.East, e.North-o.North)
}

// String renders the local point in metres.
func (e ENU) String() string {
	return fmt.Sprintf("[%.2fE %.2fN]", e.East, e.North)
}

// Projection is a local tangent-plane projection anchored at an origin.
// It converts between WGS84 and building-local metric coordinates using
// the equirectangular approximation, which is accurate to centimetres at
// building scale (< a few km from the origin).
type Projection struct {
	origin    Point
	cosLat    float64
	mPerDeg   float64 // metres per degree latitude
	mPerDegLo float64 // metres per degree longitude at origin latitude
}

// NewProjection returns a projection anchored at origin.
func NewProjection(origin Point) *Projection {
	cosLat := math.Cos(radians(origin.Lat))
	mPerDeg := 2 * math.Pi * EarthRadius / 360
	return &Projection{
		origin:    origin,
		cosLat:    cosLat,
		mPerDeg:   mPerDeg,
		mPerDegLo: mPerDeg * cosLat,
	}
}

// Origin returns the projection anchor.
func (pr *Projection) Origin() Point { return pr.origin }

// ToLocal converts a WGS84 point to local ENU metres.
func (pr *Projection) ToLocal(p Point) ENU {
	return ENU{
		East:  (p.Lon - pr.origin.Lon) * pr.mPerDegLo,
		North: (p.Lat - pr.origin.Lat) * pr.mPerDeg,
		Up:    p.Alt - pr.origin.Alt,
	}
}

// ToGlobal converts local ENU metres back to WGS84.
func (pr *Projection) ToGlobal(e ENU) Point {
	return Point{
		Lat: pr.origin.Lat + e.North/pr.mPerDeg,
		Lon: pr.origin.Lon + e.East/pr.mPerDegLo,
		Alt: pr.origin.Alt + e.Up,
	}
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }
func degrees(rad float64) float64 { return rad * 180 / math.Pi }

func normalizeLon(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}
