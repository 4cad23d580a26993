package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// aarhus is the reference campus location used across the test suite
// (the paper's group is at Aarhus University).
var aarhus = Point{Lat: 56.1629, Lon: 10.2039}

func TestPointValid(t *testing.T) {
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"origin", Point{}, true},
		{"aarhus", aarhus, true},
		{"north pole", Point{Lat: 90, Lon: 0}, true},
		{"date line", Point{Lat: 0, Lon: 180}, true},
		{"lat too big", Point{Lat: 90.01, Lon: 0}, false},
		{"lat too small", Point{Lat: -90.01, Lon: 0}, false},
		{"lon too big", Point{Lat: 0, Lon: 180.5}, false},
		{"lon too small", Point{Lat: 0, Lon: -181}, false},
		{"nan lat", Point{Lat: math.NaN(), Lon: 0}, false},
		{"nan lon", Point{Lat: 0, Lon: math.NaN()}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Valid(); got != tt.want {
				t.Errorf("Valid(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestDistanceKnownPairs(t *testing.T) {
	tests := []struct {
		name   string
		a, b   Point
		wantM  float64
		within float64 // relative tolerance
	}{
		{
			name:   "zero distance",
			a:      aarhus,
			b:      aarhus,
			wantM:  0,
			within: 0,
		},
		{
			name: "aarhus to copenhagen",
			a:    aarhus,
			b:    Point{Lat: 55.6761, Lon: 12.5683},
			// Reference value from geodesic computation.
			wantM:  157_000,
			within: 0.01,
		},
		{
			name:   "one degree latitude at equator",
			a:      Point{Lat: 0, Lon: 0},
			b:      Point{Lat: 1, Lon: 0},
			wantM:  111_195,
			within: 0.005,
		},
		{
			name:   "short hop ten metres",
			a:      aarhus,
			b:      aarhus.Offset(10, 45),
			wantM:  10,
			within: 0.001,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.a.DistanceTo(tt.b)
			if tt.wantM == 0 {
				if got != 0 {
					t.Fatalf("DistanceTo = %v, want 0", got)
				}
				return
			}
			if rel := math.Abs(got-tt.wantM) / tt.wantM; rel > tt.within {
				t.Errorf("DistanceTo = %.1f m, want %.1f m (rel err %.4f > %.4f)",
					got, tt.wantM, rel, tt.within)
			}
		})
	}
}

func TestDistanceSymmetric(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: clamp(lat1, -89, 89), Lon: clamp(lon1, -179, 179)}
		b := Point{Lat: clamp(lat2, -89, 89), Lon: clamp(lon2, -179, 179)}
		d1 := a.DistanceTo(b)
		d2 := b.DistanceTo(a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a := Point{Lat: clamp(lat1, -89, 89), Lon: clamp(lon1, -179, 179)}
		b := Point{Lat: clamp(lat2, -89, 89), Lon: clamp(lon2, -179, 179)}
		c := Point{Lat: clamp(lat3, -89, 89), Lon: clamp(lon3, -179, 179)}
		// Allow a tiny absolute slack for floating error.
		return a.DistanceTo(c) <= a.DistanceTo(b)+b.DistanceTo(c)+1e-6
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	// Travelling d metres at bearing b must land d metres away at
	// bearing ~b for moderate distances.
	cfg := &quick.Config{MaxCount: 300}
	f := func(dRaw, bRaw float64) bool {
		d := 1 + math.Mod(math.Abs(dRaw), 5000) // 1 m .. 5 km
		brg := math.Mod(math.Abs(bRaw), 360)
		q := aarhus.Offset(d, brg)
		gotD := aarhus.DistanceTo(q)
		if math.Abs(gotD-d)/d > 1e-3 {
			return false
		}
		gotB := aarhus.BearingTo(q)
		diff := math.Abs(gotB - brg)
		if diff > 180 {
			diff = 360 - diff
		}
		return diff < 0.5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBearingCardinal(t *testing.T) {
	tests := []struct {
		name    string
		bearing float64
	}{
		{"north", 0},
		{"east", 90},
		{"south", 180},
		{"west", 270},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q := aarhus.Offset(100, tt.bearing)
			got := aarhus.BearingTo(q)
			diff := math.Abs(got - tt.bearing)
			if diff > 180 {
				diff = 360 - diff
			}
			if diff > 0.1 {
				t.Errorf("BearingTo = %.3f, want %.1f", got, tt.bearing)
			}
		})
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(aarhus)
	cfg := &quick.Config{MaxCount: 300}
	f := func(eRaw, nRaw float64) bool {
		e := ENU{
			East:  math.Mod(eRaw, 2000),
			North: math.Mod(nRaw, 2000),
		}
		back := pr.ToLocal(pr.ToGlobal(e))
		return math.Abs(back.East-e.East) < 0.01 && math.Abs(back.North-e.North) < 0.01
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestProjectionDistancesAgree(t *testing.T) {
	// Planar ENU distance must agree with great-circle distance at
	// building scale.
	pr := NewProjection(aarhus)
	a := pr.ToGlobal(ENU{East: 10, North: 20})
	b := pr.ToGlobal(ENU{East: 110, North: -30})

	planar := pr.ToLocal(a).Distance(pr.ToLocal(b))
	sphere := a.DistanceTo(b)
	if math.Abs(planar-sphere) > 0.05 {
		t.Errorf("planar %.3f vs sphere %.3f differ by > 5 cm", planar, sphere)
	}
}

func TestProjectionOrigin(t *testing.T) {
	pr := NewProjection(aarhus)
	if got := pr.Origin(); got != aarhus {
		t.Errorf("Origin() = %v, want %v", got, aarhus)
	}
	e := pr.ToLocal(aarhus)
	if e.East != 0 || e.North != 0 {
		t.Errorf("ToLocal(origin) = %v, want zero", e)
	}
}

func TestNormalizeLon(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{180, 180},
		{181, -179},
		{-181, 179},
		{540, 180},
		{-540, -180}, // -180 and 180 are the same meridian; both are in range
	}
	for _, tt := range tests {
		if got := normalizeLon(tt.in); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("normalizeLon(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestENUString(t *testing.T) {
	e := ENU{East: 1.234, North: -5.678}
	if got := e.String(); got != "[1.23E -5.68N]" {
		t.Errorf("String() = %q", got)
	}
}

func TestPointString(t *testing.T) {
	if got := aarhus.String(); got != "(56.162900, 10.203900)" {
		t.Errorf("String() = %q", got)
	}
}

func clamp(v, lo, hi float64) float64 {
	if math.IsNaN(v) {
		return lo
	}
	return math.Mod(math.Abs(v), hi-lo) + lo
}
