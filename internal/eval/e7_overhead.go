package eval

import (
	"context"
	"fmt"
	"time"

	"perpos/internal/channel"
	"perpos/internal/core"
)

// E7Config parameterizes the overhead ablation.
type E7Config struct {
	// Samples is how many samples to push per configuration.
	Samples int
}

func (c E7Config) withDefaults() E7Config {
	if c.Samples <= 0 {
		c.Samples = 50_000
	}
	return c
}

// noopFeature is a minimal produce hook used to measure per-feature
// cost.
type noopFeature struct{ name string }

func (f noopFeature) FeatureName() string { return f.name }

func (f noopFeature) Produce(out core.Sample) (core.Sample, bool) { return out, true }

// BuildOverheadPipeline assembles source -> a -> b -> sink with the
// given number of no-op features on each transform. It is shared with
// the top-level benchmark harness.
func BuildOverheadPipeline(nSamples, features int) (*core.Graph, *core.Sink, error) {
	g := core.New()
	samples := make([]core.Sample, nSamples)
	base := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	for i := range samples {
		samples[i] = core.NewSample("bench.raw", i, base.Add(time.Duration(i)*time.Millisecond))
	}
	src := &core.SliceSource{CompID: "src", Out: core.OutputSpec{Kind: "bench.raw"}, Samples: samples}
	if _, err := g.Add(src); err != nil {
		return nil, nil, err
	}
	a := core.NewTransform("a", "bench.raw", "bench.mid", func(s core.Sample) (core.Sample, bool) {
		return s, true
	})
	bComp := core.NewTransform("b", "bench.mid", "bench.pos", func(s core.Sample) (core.Sample, bool) {
		return s, true
	})
	if _, err := g.Add(a); err != nil {
		return nil, nil, err
	}
	if _, err := g.Add(bComp); err != nil {
		return nil, nil, err
	}
	sink := core.NewSink("app", []core.Kind{"bench.pos"})
	if _, err := g.Add(sink); err != nil {
		return nil, nil, err
	}
	for _, c := range []struct{ from, to string }{{"src", "a"}, {"a", "b"}, {"b", "app"}} {
		if err := g.Connect(c.from, c.to, 0); err != nil {
			return nil, nil, err
		}
	}
	for _, id := range []string{"a", "b"} {
		node, _ := g.Node(id)
		for i := 0; i < features; i++ {
			if err := node.AttachFeature(noopFeature{name: fmt.Sprintf("noop-%d", i)}); err != nil {
				return nil, nil, err
			}
		}
	}
	return g, sink, nil
}

// RunE7 measures the middleware's translucency overhead: throughput of
// a three-component pipeline under the synchronous and asynchronous
// engines, with 0/1/4 Component Features per component, and with the
// Process Channel Layer's reification on or off. This is the repo's
// ablation for the paper's future-work performance question (§6).
func RunE7(cfg E7Config) (Result, error) {
	cfg = cfg.withDefaults()

	res := Result{
		ID:     "E7",
		Title:  "Translucency overhead ablation (engine x features x reification)",
		Header: []string{"engine", "features", "channel layer", "samples/s", "ns/sample"},
	}

	type variant struct {
		engine   string
		features int
		reify    bool
	}
	var variants []variant
	for _, engine := range []string{"sync", "async"} {
		for _, features := range []int{0, 1, 4} {
			for _, reify := range []bool{false, true} {
				variants = append(variants, variant{engine, features, reify})
			}
		}
	}

	var baseline float64
	for _, v := range variants {
		g, sink, err := BuildOverheadPipeline(cfg.Samples, v.features)
		if err != nil {
			return Result{}, err
		}
		var layer *channel.Layer
		if v.reify {
			layer = channel.NewLayer(g)
		}

		start := time.Now()
		switch v.engine {
		case "sync":
			if _, err := g.Run(0); err != nil {
				return Result{}, err
			}
		case "async":
			if err := g.Start(context.Background()); err != nil {
				return Result{}, err
			}
			g.WaitSources()
			if err := g.Stop(); err != nil {
				return Result{}, err
			}
		}
		elapsed := time.Since(start)
		if layer != nil {
			layer.Close()
		}
		if sink.Len() != cfg.Samples {
			return Result{}, fmt.Errorf("e7: sink got %d of %d samples (%+v)", sink.Len(), cfg.Samples, v)
		}

		perSample := float64(elapsed.Nanoseconds()) / float64(cfg.Samples)
		throughput := float64(cfg.Samples) / elapsed.Seconds()
		if v.engine == "sync" && v.features == 0 && !v.reify {
			baseline = perSample
		}
		res.Rows = append(res.Rows, []string{
			v.engine, itoa(v.features), onOff(v.reify),
			fmt.Sprintf("%.0f", throughput), fmt.Sprintf("%.0f", perSample),
		})
	}

	if baseline > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"baseline (sync, 0 features, no reification): %.0f ns/sample", baseline))
	}
	res.Samples = cfg.Samples * len(variants)
	return res, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
