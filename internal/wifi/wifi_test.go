package wifi

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"perpos/internal/building"
	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

func testNetwork() *Network {
	return DefaultDeployment(building.Evaluation())
}

func TestMeanRSSIDecreasesWithDistance(t *testing.T) {
	n := testNetwork()
	ap := n.APs()[1] // corridor centre, (20, 6)
	near, okNear := n.MeanRSSI(ap, geo.ENU{East: 21, North: 6}, 0)
	far, okFar := n.MeanRSSI(ap, geo.ENU{East: 32, North: 6}, 0)
	if !okNear || !okFar {
		t.Fatalf("both positions should hear the corridor AP: %v %v", okNear, okFar)
	}
	if near <= far {
		t.Errorf("RSSI near (%.1f) should exceed far (%.1f)", near, far)
	}
}

func TestMeanRSSIWallAttenuation(t *testing.T) {
	n := testNetwork()
	ap := n.APs()[1] // (20, 6) corridor
	d := 5.374       // |(3.8, 3.8)|
	inCorridor, ok1 := n.MeanRSSI(ap, geo.ENU{East: 20 + d, North: 6}, 0)
	// Same distance but into office N3 through the corridor wall,
	// crossing y=7 at x=19.0 — away from N3's door gap (19.4..20.6).
	throughWall, ok2 := n.MeanRSSI(ap, geo.ENU{East: 20 - 3.8, North: 6 + 3.8}, 0)
	if !ok1 || !ok2 {
		t.Fatalf("hearability: %v %v", ok1, ok2)
	}
	if inCorridor-throughWall < 3 {
		t.Errorf("wall should cost ~5 dB: corridor %.1f vs through-wall %.1f", inCorridor, throughWall)
	}
}

func TestMeanRSSISensitivityFloor(t *testing.T) {
	b := building.Evaluation()
	n := NewNetwork(b, []AP{{BSSID: "x", Pos: geo.ENU{}, TxPower: 15}})
	if _, ok := n.MeanRSSI(n.APs()[0], geo.ENU{East: 3000}, 0); ok {
		t.Error("AP 3 km away should be below sensitivity")
	}
}

func TestScanAtDeterministicPerSeed(t *testing.T) {
	n := testNetwork()
	p := geo.ENU{East: 20, North: 6}
	s1 := n.ScanAt(p, 0, time.Time{}, rand.New(rand.NewSource(1)))
	s2 := n.ScanAt(p, 0, time.Time{}, rand.New(rand.NewSource(1)))
	if len(s1.Readings) != len(s2.Readings) {
		t.Fatalf("scan lengths differ: %d vs %d", len(s1.Readings), len(s2.Readings))
	}
	for i := range s1.Readings {
		if s1.Readings[i] != s2.Readings[i] {
			t.Errorf("reading %d differs: %v vs %v", i, s1.Readings[i], s2.Readings[i])
		}
	}
}

func TestScanHearsMultipleAPsInCorridor(t *testing.T) {
	n := testNetwork()
	scan := n.ScanAt(geo.ENU{East: 20, North: 6}, 0, time.Time{}, rand.New(rand.NewSource(2)))
	if len(scan.Readings) < 3 {
		t.Errorf("corridor centre hears %d APs, want >= 3", len(scan.Readings))
	}
	if _, ok := scan.Get(scan.Readings[0].BSSID); !ok {
		t.Error("Get failed for present BSSID")
	}
	if _, ok := scan.Get("absent"); ok {
		t.Error("Get succeeded for absent BSSID")
	}
}

func TestSurveyCoversRooms(t *testing.T) {
	n := testNetwork()
	db := Survey(n, 0, SurveyConfig{Seed: 3})
	if db.Len() < 50 {
		t.Fatalf("survey produced %d cells, want >= 50", db.Len())
	}
	rooms := map[string]bool{}
	for _, fp := range db.fingerprints {
		rooms[fp.RoomID] = true
		if len(fp.RSSI) == 0 {
			t.Fatalf("fingerprint at %v has no APs", fp.Pos)
		}
	}
	// All 11 rooms must be surveyed.
	if len(rooms) != 11 {
		t.Errorf("survey covers %d rooms, want 11: %v", len(rooms), rooms)
	}
}

func TestLocateAccuracy(t *testing.T) {
	n := testNetwork()
	db := Survey(n, 0, SurveyConfig{Seed: 4})
	rng := rand.New(rand.NewSource(5))

	positions := []geo.ENU{
		{East: 10, North: 6},  // corridor
		{East: 4, North: 9},   // office N1
		{East: 20, North: 10}, // office N3
		{East: 28, North: 2},  // office S4
	}
	var sumErr float64
	var roomHits, total int
	for _, truth := range positions {
		for trial := 0; trial < 20; trial++ {
			scan := n.ScanAt(truth, 0, time.Time{}, rng)
			est, err := db.Locate(scan, 3)
			if err != nil {
				t.Fatal(err)
			}
			sumErr += est.Pos.Distance(truth)
			truthRoom, _ := n.Building().RoomAt(truth, 0)
			if est.RoomID == truthRoom.ID {
				roomHits++
			}
			total++
			if est.Accuracy <= 0 {
				t.Fatalf("non-positive accuracy estimate %v", est.Accuracy)
			}
		}
	}
	meanErr := sumErr / float64(total)
	if meanErr > 5 {
		t.Errorf("mean positioning error = %.2f m, want <= 5 m", meanErr)
	}
	roomAcc := float64(roomHits) / float64(total)
	if roomAcc < 0.6 {
		t.Errorf("room accuracy = %.2f, want >= 0.6", roomAcc)
	}
	t.Logf("wifi kNN: mean error %.2f m, room accuracy %.0f%%", meanErr, roomAcc*100)
}

func TestLocateEmptyDatabase(t *testing.T) {
	db := &Database{}
	_, err := db.Locate(&Scan{}, 3)
	if !errors.Is(err, ErrEmptyDatabase) {
		t.Errorf("error = %v, want ErrEmptyDatabase", err)
	}
}

func TestLocateKLargerThanDB(t *testing.T) {
	n := testNetwork()
	db := Survey(n, 0, SurveyConfig{Seed: 4, GridStep: 15})
	scan := n.ScanAt(geo.ENU{East: 20, North: 6}, 0, time.Time{}, rand.New(rand.NewSource(1)))
	if _, err := db.Locate(scan, 10_000); err != nil {
		t.Errorf("huge k should clamp, got %v", err)
	}
	if _, err := db.Locate(scan, 0); err != nil {
		t.Errorf("zero k should default, got %v", err)
	}
}

func TestSensorEmitsScansAlongTrace(t *testing.T) {
	b := building.Evaluation()
	n := DefaultDeployment(b)
	tr := trace.CorridorWalk(b, 6, 3, time.Second)
	sensor := NewSensor("wifi", n, tr, 2*time.Second, 7)

	var scans []*Scan
	emit := func(s core.Sample) { scans = append(scans, s.Payload.(*Scan)) }
	for {
		more, err := sensor.Step(emit)
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	if len(scans) < tr.Len()/3 {
		t.Fatalf("only %d scans for %d trace points", len(scans), tr.Len())
	}
	for i, s := range scans {
		if len(s.Readings) == 0 {
			t.Errorf("scan %d heard nothing inside the building", i)
		}
	}
}

func TestEndToEndPipelineRoomStream(t *testing.T) {
	// Fig. 1 indoor half: sensor -> engine -> resolver -> app.
	b := building.Evaluation()
	n := DefaultDeployment(b)
	db := Survey(n, 0, SurveyConfig{Seed: 8})
	tr := trace.CorridorWalk(b, 9, 4, time.Second)

	g := core.New()
	mustAdd(t, g, NewSensor("wifi", n, tr, 2*time.Second, 10))
	engine := NewEngine("positioning", db, b, 3)
	mustAdd(t, g, engine)
	mustAdd(t, g, NewResolver("resolver", b))
	sink := core.NewSink("app", []core.Kind{positioning.KindRoom})
	mustAdd(t, g, sink)
	mustConnect(t, g, "wifi", "positioning", 0)
	mustConnect(t, g, "positioning", "resolver", 0)
	mustConnect(t, g, "resolver", "app", 0)

	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Fatal("no room IDs delivered")
	}
	if engine.located == 0 {
		t.Fatal("engine located nothing")
	}

	// Room-stream accuracy against ground truth.
	hits, total := 0, 0
	for _, s := range sink.Received() {
		roomID := s.Payload.(string)
		truth, _ := tr.At(s.Time)
		total++
		if truth.RoomID == roomID {
			hits++
		}
	}
	acc := float64(hits) / float64(total)
	if acc < 0.5 {
		t.Errorf("room stream accuracy = %.2f, want >= 0.5", acc)
	}
	t.Logf("room stream accuracy: %.0f%% (%d/%d)", acc*100, hits, total)
}

func TestEngineIgnoresSparseScans(t *testing.T) {
	b := building.Evaluation()
	n := DefaultDeployment(b)
	db := Survey(n, 0, SurveyConfig{Seed: 1})
	e := NewEngine("eng", db, b, 3)
	emitted := 0
	emit := func(core.Sample) { emitted++ }

	empty := &Scan{}
	if err := e.Process(0, core.NewSample(KindScan, empty, time.Time{}), emit); err != nil {
		t.Fatal(err)
	}
	single := &Scan{Readings: []Reading{{BSSID: "x", RSSI: -50}}}
	if err := e.Process(0, core.NewSample(KindScan, single, time.Time{}), emit); err != nil {
		t.Fatal(err)
	}
	if emitted != 0 {
		t.Errorf("sparse scans produced %d positions", emitted)
	}
}

func TestResolverResolvesUnroomedPositions(t *testing.T) {
	b := building.Evaluation()
	resolver := NewResolver("resolver", b)
	var got []string
	emit := func(s core.Sample) { got = append(got, s.Payload.(string)) }

	// A GPS-style position (global only) inside office N1.
	global := b.Projection().ToGlobal(geo.ENU{East: 4, North: 9})
	pos := positioning.Position{Global: global, Source: "gps"}
	if err := resolver.Process(0, core.NewSample(positioning.KindPosition, pos, time.Time{}), emit); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "N1" {
		t.Errorf("resolved = %v, want [N1]", got)
	}

	// An outdoor position resolves to nothing.
	outdoor := positioning.Position{Global: b.Projection().ToGlobal(geo.ENU{East: -500})}
	if err := resolver.Process(0, core.NewSample(positioning.KindPosition, outdoor, time.Time{}), emit); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("outdoor position produced a room: %v", got)
	}
}

func mustAdd(t *testing.T, g *core.Graph, c core.Component) {
	t.Helper()
	if _, err := g.Add(c); err != nil {
		t.Fatalf("Add(%s): %v", c.ID(), err)
	}
}

func mustConnect(t *testing.T, g *core.Graph, from, to string, port int) {
	t.Helper()
	if err := g.Connect(from, to, port); err != nil {
		t.Fatalf("Connect(%s->%s): %v", from, to, err)
	}
}

func TestDatabaseWriteReadRoundTrip(t *testing.T) {
	n := testNetwork()
	db := Survey(n, 0, SurveyConfig{Seed: 11, GridStep: 4})
	var buf bytes.Buffer
	if err := WriteDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != db.Len() {
		t.Fatalf("round trip: %d cells, want %d", got.Len(), db.Len())
	}
	// The loaded database must position identically.
	scan := n.ScanAt(geo.ENU{East: 20, North: 6}, 0, time.Time{}, rand.New(rand.NewSource(3)))
	a, err := db.Locate(scan, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Locate(scan, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pos != b.Pos || a.RoomID != b.RoomID {
		t.Errorf("loaded database locates differently: %+v vs %+v", a, b)
	}
}

func TestReadDatabaseGarbage(t *testing.T) {
	if _, err := ReadDatabase(bytes.NewBufferString("nope")); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := ReadDatabase(bytes.NewBufferString("{\"count\":1}\nnope")); err == nil {
		t.Error("garbage record accepted")
	}
}

func TestLocateDegradesGracefullyWithDeadAP(t *testing.T) {
	// Survey with the full deployment, then position with one AP dead —
	// the engine must keep working with moderately worse accuracy.
	b := building.Evaluation()
	full := DefaultDeployment(b)
	db := Survey(full, 0, SurveyConfig{Seed: 21})

	aps := full.APs()
	degraded := NewNetwork(b, aps[1:]) // ap-1 dead
	rng := rand.New(rand.NewSource(22))

	var sumFull, sumDegraded float64
	trials := 0
	for _, truth := range []geo.ENU{{East: 10, North: 6}, {East: 20, North: 10}, {East: 28, North: 2}} {
		for i := 0; i < 10; i++ {
			sf, err := db.Locate(full.ScanAt(truth, 0, time.Time{}, rng), 3)
			if err != nil {
				t.Fatal(err)
			}
			sd, err := db.Locate(degraded.ScanAt(truth, 0, time.Time{}, rng), 3)
			if err != nil {
				t.Fatal(err)
			}
			sumFull += sf.Pos.Distance(truth)
			sumDegraded += sd.Pos.Distance(truth)
			trials++
		}
	}
	meanFull := sumFull / float64(trials)
	meanDegraded := sumDegraded / float64(trials)
	t.Logf("dead AP: mean error %.2f -> %.2f m", meanFull, meanDegraded)
	if meanDegraded > 12 {
		t.Errorf("degraded error %.2f m too large; engine should survive one dead AP", meanDegraded)
	}
}

func TestSurveySecondFloor(t *testing.T) {
	b := building.EvaluationTwoFloors()
	// Move the deployment up one floor.
	var aps []AP
	for _, ap := range DefaultDeployment(b).APs() {
		ap.Floor = 1
		aps = append(aps, ap)
	}
	n := NewNetwork(b, aps)
	db := Survey(n, 1, SurveyConfig{Seed: 23, GridStep: 4})
	if db.Len() == 0 {
		t.Fatal("no fingerprints on floor 1")
	}
	for _, fp := range db.fingerprints {
		if fp.Floor != 1 {
			t.Fatalf("fingerprint floor = %d", fp.Floor)
		}
		if len(fp.RoomID) < 2 || fp.RoomID[:2] != "1-" {
			t.Fatalf("fingerprint room = %q, want 1-*", fp.RoomID)
		}
	}
	scan := n.ScanAt(geo.ENU{East: 20, North: 6}, 1, time.Time{}, rand.New(rand.NewSource(24)))
	est, err := db.Locate(scan, 3)
	if err != nil {
		t.Fatal(err)
	}
	if est.Floor != 1 {
		t.Errorf("estimate floor = %d, want 1", est.Floor)
	}
}
