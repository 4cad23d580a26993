package wifi

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"perpos/internal/geo"
)

// ErrEmptyDatabase indicates positioning against an unsurveyed database.
var ErrEmptyDatabase = errors.New("wifi: empty fingerprint database")

// Fingerprint is one surveyed grid cell: the mean RSSI per heard AP.
type Fingerprint struct {
	Pos    geo.ENU
	Floor  int
	RoomID string
	RSSI   map[string]float64
}

// Database is an offline radio map built by a survey.
type Database struct {
	fingerprints []Fingerprint
}

// Len returns the number of surveyed cells.
func (db *Database) Len() int { return len(db.fingerprints) }

// SurveyConfig parameterizes the offline survey.
type SurveyConfig struct {
	// GridStep is the survey cell size in metres (default 2).
	GridStep float64
	// ScansPerCell is how many scans are averaged per cell (default 4).
	ScansPerCell int
	// Seed makes survey fading deterministic.
	Seed int64
}

func (c SurveyConfig) withDefaults() SurveyConfig {
	if c.GridStep <= 0 {
		c.GridStep = 2
	}
	if c.ScansPerCell <= 0 {
		c.ScansPerCell = 4
	}
	return c
}

// Survey walks the floor grid and records mean fingerprints — the
// offline phase of fingerprint positioning.
func Survey(n *Network, floor int, cfg SurveyConfig) *Database {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := &Database{}

	min, max, ok := n.Building().Bounds(floor)
	if !ok {
		return db
	}
	for e := min.East + cfg.GridStep/2; e <= max.East; e += cfg.GridStep {
		for no := min.North + cfg.GridStep/2; no <= max.North; no += cfg.GridStep {
			p := geo.ENU{East: e, North: no}
			room, inRoom := n.Building().RoomAt(p, floor)
			if !inRoom {
				continue
			}
			sums := make(map[string]float64)
			counts := make(map[string]int)
			for s := 0; s < cfg.ScansPerCell; s++ {
				scan := n.ScanAt(p, floor, timeZero, rng)
				for _, r := range scan.Readings {
					sums[r.BSSID] += r.RSSI
					counts[r.BSSID]++
				}
			}
			if len(sums) == 0 {
				continue
			}
			rssi := make(map[string]float64, len(sums))
			for b, sum := range sums {
				rssi[b] = sum / float64(counts[b])
			}
			db.fingerprints = append(db.fingerprints, Fingerprint{
				Pos:    p,
				Floor:  floor,
				RoomID: room.ID,
				RSSI:   rssi,
			})
		}
	}
	return db
}

// Estimate is an online positioning result.
type Estimate struct {
	Pos    geo.ENU
	Floor  int
	RoomID string
	// Accuracy is a 1-sigma error estimate from neighbour spread, in
	// metres.
	Accuracy float64
}

// missingPenalty is the squared-dB penalty for an AP heard in exactly
// one of (scan, fingerprint) — treating absence as a very weak signal.
const missingPenalty = 15.0

// Locate matches a scan against the database with k-nearest-neighbour
// matching in signal space and returns the weighted-centroid estimate.
func (db *Database) Locate(scan *Scan, k int) (Estimate, error) {
	if len(db.fingerprints) == 0 {
		return Estimate{}, ErrEmptyDatabase
	}
	if k <= 0 {
		k = 3
	}
	type scored struct {
		fp   *Fingerprint
		dist float64
	}
	scores := make([]scored, 0, len(db.fingerprints))
	for i := range db.fingerprints {
		fp := &db.fingerprints[i]
		scores = append(scores, scored{fp: fp, dist: signalDistance(scan, fp)})
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].dist < scores[j].dist })
	if k > len(scores) {
		k = len(scores)
	}
	best := scores[:k]

	// Inverse-distance weighted centroid.
	var wSum, e, n float64
	for _, s := range best {
		w := 1 / (s.dist + 0.1)
		wSum += w
		e += w * s.fp.Pos.East
		n += w * s.fp.Pos.North
	}
	pos := geo.ENU{East: e / wSum, North: n / wSum}

	// Spread of the k neighbours around the centroid as accuracy.
	var spread float64
	for _, s := range best {
		spread += s.fp.Pos.Distance(pos) * s.fp.Pos.Distance(pos)
	}
	spread = math.Sqrt(spread / float64(k))
	if spread < 1 {
		spread = 1
	}

	// Room by nearest-cell vote among the neighbours.
	votes := make(map[string]int)
	for _, s := range best {
		votes[s.fp.RoomID]++
	}
	room := best[0].fp.RoomID
	bestVotes := 0
	for id, v := range votes {
		if v > bestVotes || (v == bestVotes && id < room) {
			room = id
			bestVotes = v
		}
	}

	return Estimate{
		Pos:      pos,
		Floor:    best[0].fp.Floor,
		RoomID:   room,
		Accuracy: spread,
	}, nil
}

// signalDistance is the mean squared dB distance between a scan and a
// fingerprint over the union of their APs, with a fixed penalty for APs
// heard on only one side.
func signalDistance(scan *Scan, fp *Fingerprint) float64 {
	var sum float64
	var n int
	for _, r := range scan.Readings {
		if ref, ok := fp.RSSI[r.BSSID]; ok {
			d := r.RSSI - ref
			sum += d * d
		} else {
			sum += missingPenalty * missingPenalty
		}
		n++
	}
	for bssid := range fp.RSSI {
		if _, ok := scan.Get(bssid); !ok {
			sum += missingPenalty * missingPenalty
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(sum / float64(n))
}
