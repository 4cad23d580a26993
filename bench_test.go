package perpos_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"perpos/internal/building"
	"perpos/internal/channel"
	"perpos/internal/core"
	"perpos/internal/eval"
	"perpos/internal/filter"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/nmea"
	"perpos/internal/positioning"
	"perpos/internal/registry"
	"perpos/internal/trace"
	"perpos/internal/transport"
	"perpos/internal/wifi"
)

// The experiment benchmarks regenerate each EXPERIMENTS.md artifact
// once per iteration; run them with -benchtime=1x for a single
// regeneration pass.

func BenchmarkE1RoomNumber(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunE1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2Views(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunE2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3DataTree(b *testing.B) {
	// Per-sample cost of running the Fig. 4 pipeline WITH channel
	// reification and tree construction.
	tr := trace.CorridorWalk(building.Evaluation(), 50, 4, time.Second)
	g, layer, _, err := eval.BuildGPSChannelPipeline(tr, gps.Config{Seed: 51})
	if err != nil {
		b.Fatal(err)
	}
	defer layer.Close()
	// Feed synthetic raw sentences straight into the parser path.
	line := mustGGA(b, 56.1629, 10.2039, 8, 1.0)
	sample := core.NewSample(gps.KindRaw, line, time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Inject("gps", sample); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4SatFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunE4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5ParticleFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunE5(eval.E5Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5ParticleStep(b *testing.B) {
	// Cost of one particle-filter update (predict+weight+resample) at
	// the default population.
	bld := building.Evaluation()
	pf := filter.NewParticleFilter("pf", bld, filter.Config{Particles: 400, Seed: 1})
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	mk := func(i int) core.Sample {
		pos := positioning.Position{
			Time:     at.Add(time.Duration(i) * time.Second),
			Local:    geo.ENU{East: 20 + float64(i%5), North: 6},
			HasLocal: true,
			Accuracy: 5,
		}
		return core.NewSample(positioning.KindPosition, pos, pos.Time)
	}
	emit := func(core.Sample) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pf.Process(0, mk(i), emit); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6EnTracked(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunE6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7Overhead(b *testing.B) {
	// The sub-benchmarks measure per-sample pipeline cost for each
	// point of the E7 ablation grid.
	for _, features := range []int{0, 1, 4} {
		for _, reify := range []bool{false, true} {
			name := fmt.Sprintf("features=%d/reify=%v", features, reify)
			b.Run(name, func(b *testing.B) {
				g, sink, err := eval.BuildOverheadPipeline(1, features)
				if err != nil {
					b.Fatal(err)
				}
				var layer *channel.Layer
				if reify {
					layer = channel.NewLayer(g)
					defer layer.Close()
				}
				sample := core.NewSample("bench.raw", 1, time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := g.Inject("src", sample); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if sink.Len() < b.N {
					b.Fatalf("sink got %d of %d", sink.Len(), b.N)
				}
			})
		}
	}
}

func BenchmarkE8Resolve(b *testing.B) {
	for _, pool := range []int{0, 100, 1000} {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reg := &registry.Registry{}
				for j := 0; j < pool; j++ {
					kind := core.Kind(fmt.Sprintf("noise.%d", j))
					out := core.Kind(fmt.Sprintf("noise.%d.out", j))
					if err := reg.Register(registry.Registration{
						Name: fmt.Sprintf("Noise%d", j),
						Spec: core.Spec{
							Inputs: []core.PortSpec{{Name: "in", Accepts: []core.Kind{kind}}},
							Output: core.OutputSpec{Kind: out},
						},
						New: func(id string) core.Component {
							return core.NewTransform(id, kind, out,
								func(s core.Sample) (core.Sample, bool) { return s, true })
						},
					}); err != nil {
						b.Fatal(err)
					}
				}
				if err := reg.Register(registry.Registration{
					Name: "Parser",
					Spec: gps.NewParser("proto").Spec(),
					New:  func(id string) core.Component { return gps.NewParser(id) },
				}); err != nil {
					b.Fatal(err)
				}
				if err := reg.Register(registry.Registration{
					Name: "Interpreter",
					Spec: gps.NewInterpreter("proto", 0).Spec(),
					New:  func(id string) core.Component { return gps.NewInterpreter(id, 0) },
				}); err != nil {
					b.Fatal(err)
				}

				g := core.New()
				tr := trace.OutdoorTrack(geo.Point{Lat: 56.16, Lon: 10.2}, 1, 1, 50, 1.4, time.Second)
				if _, err := g.Add(gps.NewReceiver("gps", tr, gps.Config{Seed: 1})); err != nil {
					b.Fatal(err)
				}
				if _, err := g.Add(core.NewSink("app", []core.Kind{positioning.KindPosition})); err != nil {
					b.Fatal(err)
				}
				if _, err := reg.Resolve(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks on the substrates ---

func BenchmarkNMEAParseGGA(b *testing.B) {
	line := mustGGA(b, 56.1629, 10.2039, 8, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nmea.Parse(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNMEAFormatGGA(b *testing.B) {
	g := nmea.GGA{Lat: 56.1629, Lon: 10.2039, Quality: nmea.FixGPS, NumSatellites: 8, HDOP: 1.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nmea.Format(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWiFiLocate(b *testing.B) {
	bld := building.Evaluation()
	n := wifi.DefaultDeployment(bld)
	db := wifi.Survey(n, 0, wifi.SurveyConfig{Seed: 1})
	rng := rand.New(rand.NewSource(2))
	scan := n.ScanAt(geo.ENU{East: 20, North: 6}, 0, time.Time{}, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Locate(scan, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWallCrossing(b *testing.B) {
	bld := building.Evaluation()
	p := geo.ENU{East: 4, North: 6}
	q := geo.ENU{East: 4, North: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.Crosses(p, q, 0)
	}
}

func BenchmarkGeoDistance(b *testing.B) {
	a := geo.Point{Lat: 56.1629, Lon: 10.2039}
	c := geo.Point{Lat: 55.6761, Lon: 12.5683}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.DistanceTo(c)
	}
}

// mustGGA renders a GGA sentence for benchmark input.
func mustGGA(b *testing.B, lat, lon float64, sats int, hdop float64) string {
	b.Helper()
	line, err := nmea.Format(nmea.GGA{
		Time:          time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC),
		Lat:           lat,
		Lon:           lon,
		Quality:       nmea.FixGPS,
		NumSatellites: sats,
		HDOP:          hdop,
	})
	if err != nil {
		b.Fatal(err)
	}
	return line
}

func BenchmarkE9Transport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunE9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10ParticleAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunE10(eval.E10Config{Particles: []int{100, 400}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransportClassify(b *testing.B) {
	tr := trace.Multimodal(geo.Point{Lat: 56.16, Lon: 10.2}, 1, time.Second)
	g := core.New()
	comps := []core.Component{
		gps.NewReceiver("gps", tr, gps.Config{Seed: 2, ColdStart: time.Second}),
		gps.NewParser("parser"),
		gps.NewInterpreter("interpreter", 0),
		transport.NewSegmenter("segmenter", 30*time.Second),
		transport.NewFeatureExtractor("features"),
		transport.NewClassifier("classifier"),
		transport.NewHMMSmoother("hmm", 0),
	}
	for _, c := range comps {
		if _, err := g.Add(c); err != nil {
			b.Fatal(err)
		}
	}
	sink := core.NewSink("app", []core.Kind{transport.KindMode})
	if _, err := g.Add(sink); err != nil {
		b.Fatal(err)
	}
	order := []string{"gps", "parser", "interpreter", "segmenter", "features", "classifier", "hmm", "app"}
	for i := 0; i < len(order)-1; i++ {
		if err := g.Connect(order[i], order[i+1], 0); err != nil {
			b.Fatal(err)
		}
	}
	line := mustGGA(b, 56.1629, 10.2039, 8, 1.0)
	sample := core.NewSample(gps.KindRaw, line, time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Inject("gps", sample); err != nil {
			b.Fatal(err)
		}
	}
}
