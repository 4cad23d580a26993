// Package wifi simulates an indoor WiFi positioning system: access
// points, log-distance path-loss signal propagation with wall
// attenuation (one fixed office-interior model), an offline fingerprint
// survey and an online k-nearest-neighbour positioning engine — the
// indoor half of the Room Number application (Fig. 1: WiFi sensor ->
// WiFi positioning -> Resolver).
//
// Substitution note (DESIGN.md): the paper used a campus WiFi
// deployment. The simulated deployment reproduces what the case studies
// rely on: room-level positioning with realistic, wall-dependent error.
package wifi

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"perpos/internal/building"
	"perpos/internal/core"
	"perpos/internal/geo"
)

// KindScan is the sample kind carrying *Scan payloads.
const KindScan core.Kind = "wifi.scan"

// Reading is one access point observation in a scan.
type Reading struct {
	BSSID string  `json:"bssid"`
	RSSI  float64 `json:"rssi"` // dBm
}

// Scan is one WiFi measurement: the set of heard APs.
type Scan struct {
	Time     time.Time `json:"time"`
	Readings []Reading `json:"readings"`
}

// Get returns the RSSI for a BSSID and whether it was heard.
func (s *Scan) Get(bssid string) (float64, bool) {
	for _, r := range s.Readings {
		if r.BSSID == bssid {
			return r.RSSI, true
		}
	}
	return 0, false
}

// AP is a deployed access point.
type AP struct {
	BSSID string
	Name  string
	Pos   geo.ENU
	Floor int
	// TxPower is the transmit power in dBm (default 15 used by
	// DefaultDeployment).
	TxPower float64
}

// The log-distance path-loss model:
//
//	RSSI(d) = TxPower - pathLossAt1m - 10*pathLossExp*log10(max(d,1)) - wallLoss*walls + X(shadowSigma)
//
// An AP weaker than sensitivity is not heard.
const (
	pathLossAt1m = 40  // path loss at 1 m, dB
	pathLossExp  = 3.0 // path-loss exponent of office interiors
	wallLoss     = 5   // attenuation per wall, dB
	shadowSigma  = 3   // lognormal shadow-fading sigma, dB
	sensitivity  = -88 // receive floor, dBm
)

// Network is a deployed WiFi infrastructure inside one building.
type Network struct {
	b   *building.Building
	aps []AP
}

// NewNetwork returns a network of the given APs in b.
func NewNetwork(b *building.Building, aps []AP) *Network {
	return &Network{b: b, aps: aps}
}

// Building returns the network's building.
func (n *Network) Building() *building.Building { return n.b }

// APs returns the deployed access points.
func (n *Network) APs() []AP {
	out := make([]AP, len(n.aps))
	copy(out, n.aps)
	return out
}

// MeanRSSI returns the noise-free expected RSSI of ap at p, or false
// when below sensitivity.
func (n *Network) MeanRSSI(ap AP, p geo.ENU, floor int) (float64, bool) {
	d := ap.Pos.Distance(p)
	if d < 1 {
		d = 1
	}
	walls := n.b.WallsBetween(ap.Pos, p, floor)
	rssi := ap.TxPower - pathLossAt1m - 10*pathLossExp*math.Log10(d) - wallLoss*float64(walls)
	if rssi < sensitivity {
		return 0, false
	}
	return rssi, true
}

// ScanAt simulates one scan at position p using rng for shadow fading.
func (n *Network) ScanAt(p geo.ENU, floor int, at time.Time, rng *rand.Rand) *Scan {
	scan := &Scan{Time: at}
	for _, ap := range n.aps {
		if ap.Floor != floor {
			continue
		}
		mean, heard := n.MeanRSSI(ap, p, floor)
		if !heard {
			continue
		}
		rssi := mean + rng.NormFloat64()*shadowSigma
		if rssi < sensitivity {
			continue
		}
		scan.Readings = append(scan.Readings, Reading{BSSID: ap.BSSID, RSSI: rssi})
	}
	return scan
}

// DefaultDeployment places eight APs through the evaluation building:
// three along the corridor and five in alternating offices — enough
// overlap for room-level k-NN positioning everywhere on the floor.
func DefaultDeployment(b *building.Building) *Network {
	mk := func(i int, e, n float64) AP {
		return AP{
			BSSID:   fmt.Sprintf("00:17:9a:%02x:%02x:%02x", i, i*3+1, i*7+5),
			Name:    fmt.Sprintf("ap-%d", i),
			Pos:     geo.ENU{East: e, North: n},
			TxPower: 15,
		}
	}
	aps := []AP{
		mk(1, 6, 6),   // corridor west
		mk(2, 20, 6),  // corridor centre
		mk(3, 34, 6),  // corridor east
		mk(4, 4, 10),  // office N1
		mk(5, 20, 10), // office N3
		mk(6, 36, 10), // office N5
		mk(7, 12, 2),  // office S2
		mk(8, 28, 2),  // office S4
	}
	return NewNetwork(b, aps)
}
