package gps

import (
	"strings"
	"testing"
	"time"

	"perpos/internal/building"
	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/nmea"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

var testOrigin = geo.Point{Lat: 56.1629, Lon: 10.2039}

// outdoorTrace returns a short outdoor walking trace.
func outdoorTrace(seconds int) *trace.Trace {
	return trace.OutdoorTrack(testOrigin, 1, 4, 100, 1.4, time.Second)
}

// indoorTrace returns an indoor corridor walk.
func indoorTrace() *trace.Trace {
	return trace.CorridorWalk(building.Evaluation(), 2, 4, time.Second)
}

// runReceiver steps the receiver to exhaustion, returning every emitted
// sample (payloads are raw lines; envelope times carry the full date).
func runReceiver(t *testing.T, r *Receiver) []core.Sample {
	t.Helper()
	var out []core.Sample
	emit := func(s core.Sample) { out = append(out, s) }
	for i := 0; i < 1_000_000; i++ {
		more, err := r.Step(emit)
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			return out
		}
	}
	t.Fatal("receiver never exhausted")
	return nil
}

func TestReceiverEmitsValidNMEA(t *testing.T) {
	r := NewReceiver("gps", outdoorTrace(60), Config{Seed: 1, ColdStart: 2 * time.Second})
	lines := runReceiver(t, r)
	if len(lines) < 50 {
		t.Fatalf("only %d lines emitted", len(lines))
	}
	var gga, rmc, gsa int
	for _, sample := range lines {
		s, err := nmea.Parse(sample.Payload.(string))
		if err != nil {
			t.Fatalf("receiver emitted unparseable line %q: %v", sample.Payload, err)
		}
		switch s.(type) {
		case nmea.GGA:
			gga++
		case nmea.RMC:
			rmc++
		case nmea.GSA:
			gsa++
		}
	}
	if gga == 0 || rmc == 0 || gsa == 0 {
		t.Errorf("sentence mix GGA=%d RMC=%d GSA=%d; want all > 0", gga, rmc, gsa)
	}
	if r.emitted != len(lines) {
		t.Errorf("emitted = %d, want %d", r.emitted, len(lines))
	}
}

func TestReceiverAcquisitionDelay(t *testing.T) {
	r := NewReceiver("gps", outdoorTrace(60), Config{Seed: 1, ColdStart: 5 * time.Second})
	lines := runReceiver(t, r)
	// The first 5 epochs must be no-fix sentences.
	for i := 0; i < 5 && i < len(lines); i++ {
		s, err := nmea.Parse(lines[i].Payload.(string))
		if err != nil {
			t.Fatal(err)
		}
		g, ok := s.(nmea.GGA)
		if !ok {
			t.Fatalf("line %d during acquisition is %T, want GGA", i, s)
		}
		if g.Quality != nmea.FixInvalid {
			t.Errorf("line %d quality = %v during acquisition", i, g.Quality)
		}
	}
	// Later lines contain fixes.
	sawFix := false
	for _, sample := range lines[5:] {
		if s, err := nmea.Parse(sample.Payload.(string)); err == nil {
			if g, ok := s.(nmea.GGA); ok && g.Quality == nmea.FixGPS {
				sawFix = true
				break
			}
		}
	}
	if !sawFix {
		t.Error("no fix after acquisition")
	}
}

func TestReceiverOutdoorAccuracy(t *testing.T) {
	tr := outdoorTrace(120)
	r := NewReceiver("gps", tr, Config{Seed: 3, ColdStart: time.Second})
	lines := runReceiver(t, r)

	proj := geo.NewProjection(tr.Origin)
	var count int
	var sumErr float64
	for _, sample := range lines {
		s, err := nmea.Parse(sample.Payload.(string))
		if err != nil {
			continue
		}
		g, ok := s.(nmea.GGA)
		if !ok || g.Quality == nmea.FixInvalid {
			continue
		}
		truth, _ := tr.At(sample.Time)
		fix := proj.ToLocal(geo.Point{Lat: g.Lat, Lon: g.Lon})
		sumErr += fix.Distance(truth.Local)
		count++
		if g.NumSatellites < 7 {
			t.Errorf("outdoor satellite count %d < 7", g.NumSatellites)
		}
		if g.HDOP > 1.6 {
			t.Errorf("outdoor HDOP %v > 1.6", g.HDOP)
		}
	}
	if count < 50 {
		t.Fatalf("only %d fixes", count)
	}
	mean := sumErr / float64(count)
	// Mean error ~ sigma * sqrt(pi/2) with sigma ~ HDOP*UERE ~ 3.5 m.
	if mean < 1 || mean > 10 {
		t.Errorf("outdoor mean error = %.2f m, want 1-10 m", mean)
	}
}

func TestReceiverIndoorDegradation(t *testing.T) {
	tr := indoorTrace()
	r := NewReceiver("gps", tr, Config{Seed: 4, ColdStart: time.Second})
	lines := runReceiver(t, r)

	proj := geo.NewProjection(tr.Origin)
	var indoorFixes, lowSats int
	var sumErr float64
	for _, sample := range lines {
		s, err := nmea.Parse(sample.Payload.(string))
		if err != nil {
			continue
		}
		g, ok := s.(nmea.GGA)
		if !ok || g.Quality == nmea.FixInvalid {
			continue
		}
		indoorFixes++
		if g.NumSatellites < 6 {
			lowSats++
		}
		truth, _ := tr.At(sample.Time)
		fix := proj.ToLocal(geo.Point{Lat: g.Lat, Lon: g.Lon})
		sumErr += fix.Distance(truth.Local)
	}
	if indoorFixes == 0 {
		t.Fatal("device should keep producing fixes indoors (the §3.1 seam)")
	}
	if lowSats == 0 {
		t.Error("indoor fixes should have degraded satellite counts")
	}
	mean := sumErr / float64(indoorFixes)
	if mean < 10 {
		t.Errorf("indoor mean error = %.1f m; expected large (>10 m) ghost-fix error", mean)
	}
}

func TestReceiverPowerCycle(t *testing.T) {
	tr := outdoorTrace(300)
	var ticks []Mode
	r := NewReceiver("gps", tr, Config{Seed: 5, ColdStart: 2 * time.Second, WarmStart: time.Second},
		StartOff(),
		WithTick(func(m Mode, _ time.Duration) { ticks = append(ticks, m) }))

	if r.Mode() != ModeOff {
		t.Fatalf("mode = %v, want off at start", r.Mode())
	}
	emitCount := 0
	emit := func(core.Sample) { emitCount++ }

	// Off: stepping produces nothing.
	for i := 0; i < 10; i++ {
		if _, err := r.Step(emit); err != nil {
			t.Fatal(err)
		}
	}
	if emitCount != 0 {
		t.Errorf("emitted %d samples while off", emitCount)
	}

	// Power on: cold acquisition then fixes.
	r.PowerOn()
	if r.Mode() != ModeAcquiring {
		t.Fatalf("mode = %v after PowerOn", r.Mode())
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Step(emit); err != nil {
			t.Fatal(err)
		}
	}
	if r.Mode() != ModeTracking {
		t.Errorf("mode = %v, want tracking", r.Mode())
	}
	if emitCount == 0 {
		t.Error("no emissions after power on")
	}

	// Power off again, then a short off period leads to warm start.
	r.PowerOff()
	if r.Mode() != ModeOff {
		t.Fatalf("mode = %v after PowerOff", r.Mode())
	}
	if _, err := r.Step(emit); err != nil {
		t.Fatal(err)
	}
	r.PowerOn()
	// Warm start is 1 s: one step finishes acquisition.
	if _, err := r.Step(emit); err != nil {
		t.Fatal(err)
	}
	if r.Mode() != ModeTracking {
		t.Errorf("mode = %v after warm start, want tracking", r.Mode())
	}

	// Double PowerOn/PowerOff are no-ops.
	r.PowerOn()
	if r.Mode() != ModeTracking {
		t.Error("PowerOn while on changed mode")
	}
	r.PowerOff()
	r.PowerOff()
	if r.Mode() != ModeOff {
		t.Error("double PowerOff broke mode")
	}

	if len(ticks) == 0 {
		t.Error("tick observer never called")
	}
}

func TestParserPipeline(t *testing.T) {
	g := core.New()
	tr := outdoorTrace(30)
	if _, err := g.Add(NewReceiver("gps", tr, Config{Seed: 6, ColdStart: time.Second})); err != nil {
		t.Fatal(err)
	}
	parser := NewParser("parser")
	if _, err := g.Add(parser); err != nil {
		t.Fatal(err)
	}
	interp := NewInterpreter("interpreter", 0)
	if _, err := g.Add(interp); err != nil {
		t.Fatal(err)
	}
	sink := core.NewSink("app", []core.Kind{positioning.KindPosition})
	if _, err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ from, to string }{
		{"gps", "parser"}, {"parser", "interpreter"}, {"interpreter", "app"},
	} {
		if err := g.Connect(c.from, c.to, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}

	if sink.Len() == 0 {
		t.Fatal("no positions delivered")
	}
	for _, s := range sink.Received() {
		pos, ok := s.Payload.(positioning.Position)
		if !ok {
			t.Fatalf("payload = %T", s.Payload)
		}
		if !pos.Global.Valid() || pos.Source != "gps" || pos.Accuracy <= 0 {
			t.Errorf("bad position %+v", pos)
		}
	}
	parsed, dropped := parser.Stats()
	if parsed == 0 {
		t.Error("parser parsed nothing")
	}
	if dropped != 0 {
		t.Errorf("parser dropped %d good sentences", dropped)
	}
	if interp.emitted != sink.Len() {
		t.Errorf("interpreter emitted %d, sink got %d", interp.emitted, sink.Len())
	}
}

func TestParserDropsGarbage(t *testing.T) {
	p := NewParser("parser")
	emitted := 0
	emit := func(core.Sample) { emitted++ }
	inputs := []any{
		"garbage",
		"$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*00", // bad checksum
		12345, // not a string
		nmea.Frame("GPZDA,123519,23,03,1994,00,00"), // unknown type: ignored silently
	}
	for _, in := range inputs {
		if err := p.Process(0, core.NewSample(KindRaw, in, time.Time{}), emit); err != nil {
			t.Fatal(err)
		}
	}
	if emitted != 0 {
		t.Errorf("emitted %d from garbage", emitted)
	}
	parsed, dropped := p.Stats()
	if parsed != 0 || dropped != 3 {
		t.Errorf("stats = %d/%d, want 0 parsed, 3 dropped", parsed, dropped)
	}
}

// TestParserDropsUnknownPayloadType pins the Parser's defensive arm.
func TestParserDropsUnknownPayloadType(t *testing.T) {
	p := NewParser("parser")
	if err := p.Process(0, core.NewSample(KindRaw, 42, time.Now()), func(core.Sample) {
		t.Fatal("emitted from garbage payload")
	}); err != nil {
		t.Fatal(err)
	}
	if _, dropped := p.Stats(); dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
}

func TestInterpreterSpeedFromRMC(t *testing.T) {
	i := NewInterpreter("interp", 0)
	var got []core.Sample
	emit := func(s core.Sample) { got = append(got, s) }

	rmc := nmea.RMC{Valid: true, SpeedKn: 10, Lat: 56, Lon: 10}
	if err := i.Process(0, core.NewSample(KindSentence, rmc, time.Time{}), emit); err != nil {
		t.Fatal(err)
	}
	gga := nmea.GGA{Quality: nmea.FixGPS, Lat: 56, Lon: 10, NumSatellites: 8, HDOP: 1.0}
	if err := i.Process(0, core.NewSample(KindSentence, gga, time.Time{}), emit); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("emitted %d, want 1", len(got))
	}
	speed, ok := got[0].FloatAttr("speedMS")
	if !ok || speed < 5 || speed > 5.2 {
		t.Errorf("speedMS attr = %v/%v, want ~5.14", speed, ok)
	}
}

func TestInterpreterSkipsInvalidFix(t *testing.T) {
	i := NewInterpreter("interp", 0)
	emitted := 0
	emit := func(core.Sample) { emitted++ }
	gga := nmea.GGA{Quality: nmea.FixInvalid}
	if err := i.Process(0, core.NewSample(KindSentence, gga, time.Time{}), emit); err != nil {
		t.Fatal(err)
	}
	if emitted != 0 {
		t.Error("invalid fix produced a position")
	}
}

func TestHDOPFeature(t *testing.T) {
	g := core.New()
	tr := outdoorTrace(20)
	if _, err := g.Add(NewReceiver("gps", tr, Config{Seed: 7, ColdStart: time.Second})); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(NewParser("parser")); err != nil {
		t.Fatal(err)
	}
	parserNode, _ := g.Node("parser")
	feature := NewHDOPFeature()
	if err := parserNode.AttachFeature(feature); err != nil {
		t.Fatal(err)
	}
	sink := core.NewSink("app", []core.Kind{KindSentence},
		core.WithAcceptedFeatures(FeatureHDOP))
	if _, err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("gps", "parser", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("parser", "app", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}

	// State access: the feature exposes the last HDOP.
	v, ok := feature.HDOP()
	if !ok || v <= 0 {
		t.Errorf("HDOP() = %v/%v", v, ok)
	}

	// The GGA samples carry the hdop attribute; feature data samples
	// were delivered too.
	var attrCount, featureData int
	for _, s := range sink.Received() {
		if s.FromFeature == FeatureHDOP {
			featureData++
			continue
		}
		if _, ok := s.Payload.(nmea.GGA); ok {
			if _, ok := s.FloatAttr(AttrHDOP); ok {
				attrCount++
			}
		}
	}
	if attrCount == 0 {
		t.Error("no GGA samples carried the hdop attribute")
	}
	if featureData == 0 {
		t.Error("no feature-emitted HDOP data delivered")
	}
}

func TestSatelliteFilterRemovesUnreliableFixes(t *testing.T) {
	// E4 in miniature: indoors, the device keeps emitting fixes with
	// few satellites; the filter inserted after the Parser drops them.
	run := func(t *testing.T, withFilter bool) (delivered int, meanErr float64) {
		t.Helper()
		tr := indoorTrace()
		g := core.New()
		if _, err := g.Add(NewReceiver("gps", tr, Config{Seed: 8, ColdStart: time.Second})); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Add(NewParser("parser")); err != nil {
			t.Fatal(err)
		}
		parserNode, _ := g.Node("parser")
		if err := parserNode.AttachFeature(NewSatellitesFeature()); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Add(NewInterpreter("interpreter", 0)); err != nil {
			t.Fatal(err)
		}
		sink := core.NewSink("app", []core.Kind{positioning.KindPosition})
		if _, err := g.Add(sink); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect("gps", "parser", 0); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect("parser", "interpreter", 0); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect("interpreter", "app", 0); err != nil {
			t.Fatal(err)
		}
		if withFilter {
			if err := g.InsertBetween(NewSatelliteFilter("satfilter", 6), "parser", "interpreter", 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := g.Run(0); err != nil {
			t.Fatal(err)
		}

		proj := geo.NewProjection(tr.Origin)
		var sum float64
		for _, s := range sink.Received() {
			pos := s.Payload.(positioning.Position)
			truth, _ := tr.At(pos.Time)
			sum += proj.ToLocal(pos.Global).Distance(truth.Local)
		}
		if sink.Len() == 0 {
			return 0, 0
		}
		return sink.Len(), sum / float64(sink.Len())
	}

	without, errWithout := run(t, false)
	with, errWith := run(t, true)
	if without == 0 {
		t.Fatal("baseline delivered nothing")
	}
	// Indoors nearly all fixes are low-satellite ghosts: the filter
	// should remove the vast majority.
	if with >= without/2 {
		t.Errorf("filter kept %d of %d fixes; expected < half", with, without)
	}
	t.Logf("satellite filter: %d -> %d fixes, mean error %.1f -> %.1f m",
		without, with, errWithout, errWith)
}

func TestSatelliteFilterRequiresFeature(t *testing.T) {
	// The filter declares its dependency on the NumberOfSatellites
	// feature; wiring it after a bare parser must fail.
	g := core.New()
	if _, err := g.Add(NewParser("parser")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(NewSatelliteFilter("filter", 5)); err != nil {
		t.Fatal(err)
	}
	err := g.Connect("parser", "filter", 0)
	if err == nil {
		t.Fatal("connect should fail without the satellites feature")
	}
	if !strings.Contains(err.Error(), FeatureSatellites) {
		t.Errorf("error %v does not name the missing feature", err)
	}
}

func TestModeString(t *testing.T) {
	tests := []struct {
		m    Mode
		want string
	}{
		{ModeOff, "off"},
		{ModeAcquiring, "acquiring"},
		{ModeTracking, "tracking"},
		{Mode(0), "invalid"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(tt.m), got, tt.want)
		}
	}
}

func TestReceiverEmitsGSVGroups(t *testing.T) {
	r := NewReceiver("gps", outdoorTrace(60), Config{Seed: 9, ColdStart: time.Second})
	lines := runReceiver(t, r)
	var gsv int
	for _, sample := range lines {
		s, err := nmea.Parse(sample.Payload.(string))
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := s.(nmea.GSV); ok {
			gsv++
			if g.TotalInView < 7 {
				t.Errorf("GSV reports %d in view outdoors", g.TotalInView)
			}
			if len(g.Satellites) == 0 || len(g.Satellites) > 4 {
				t.Errorf("GSV carries %d satellites", len(g.Satellites))
			}
		}
	}
	if gsv == 0 {
		t.Error("no GSV sentences emitted")
	}
}

func TestParserStatsFeature(t *testing.T) {
	g := core.New()
	parser := NewParser("parser")
	if _, err := g.Add(parser); err != nil {
		t.Fatal(err)
	}
	// The sentences enter through a raw source node.
	if _, err := g.Add(&core.SliceSource{CompID: "raw", Out: core.OutputSpec{Kind: KindRaw}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("raw", "parser", 0); err != nil {
		t.Fatal(err)
	}
	node, _ := g.Node("parser")
	if err := node.AttachFeature(NewStatsFeature()); err != nil {
		t.Fatal(err)
	}

	good := nmea.GGA{Quality: nmea.FixGPS, Lat: 56, Lon: 10, NumSatellites: 8, HDOP: 1}.Format()
	for _, raw := range []string{good, "garbage", good, "more garbage"} {
		if err := g.Inject("raw", core.NewSample(KindRaw, raw, time.Time{})); err != nil {
			t.Fatal(err)
		}
	}

	f, ok := node.Feature(FeatureParserStats)
	if !ok {
		t.Fatal("stats feature not found")
	}
	stats, ok := f.(ParserStats)
	if !ok {
		t.Fatalf("%T does not implement ParserStats", f)
	}
	if stats.Parsed() != 2 || stats.Dropped() != 2 {
		t.Errorf("stats = %d/%d, want 2/2", stats.Parsed(), stats.Dropped())
	}
	if stats.DropRate() != 0.5 {
		t.Errorf("DropRate = %v, want 0.5", stats.DropRate())
	}

	// Unbound feature degrades to zeros.
	unbound := NewStatsFeature()
	if unbound.Parsed() != 0 || unbound.DropRate() != 0 {
		t.Error("unbound feature should report zeros")
	}
}
