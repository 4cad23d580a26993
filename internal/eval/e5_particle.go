package eval

import (
	"fmt"
	"time"

	"perpos/internal/building"
	"perpos/internal/channel"
	"perpos/internal/core"
	"perpos/internal/filter"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

// E5Config parameterizes the particle-filter experiment.
type E5Config struct {
	// Series, when true, adds the per-step truth/raw/filtered series to
	// the notes (the data behind a Fig. 6 style plot).
	Series bool
}

// RunE5 reproduces §3.2 / Figs. 5–6: the particle filter integrated via
// the middleware's adaptation API (HDOP Component Feature + Likelihood
// Channel Feature + wall constraints), compared against raw GPS and a
// moving-average smoother on an indoor corridor walk. The walk has seed
// 70, and the particle filter runs 400 particles. Each estimator is
// spliced in between the interpreter and the application.
func RunE5(cfg E5Config) (Result, error) {
	const seed = 70
	b := building.Evaluation()

	type variant struct {
		name  string
		build func(g *core.Graph, layer *channel.Layer) error
	}

	variants := []variant{
		{name: "raw gps", build: func(g *core.Graph, _ *channel.Layer) error {
			return nil
		}},
		{name: "moving average (w=5)", build: func(g *core.Graph, _ *channel.Layer) error {
			return g.InsertBetween(filter.NewMovingAverage("smoother", 5), "interpreter", "app", 0, 0)
		}},
		{name: "kalman (cv)", build: func(g *core.Graph, _ *channel.Layer) error {
			return g.InsertBetween(filter.NewKalmanFilter("kalman", 0.5, b.Projection()), "interpreter", "app", 0, 0)
		}},
		{name: "particle filter", build: func(g *core.Graph, layer *channel.Layer) error {
			pf := filter.NewParticleFilter("particle-filter", b, filter.Config{Particles: 400, Seed: seed + 9})
			if err := g.InsertBetween(pf, "interpreter", "app", 0, 0); err != nil {
				return err
			}
			layer.Refresh()
			ch, ok := layer.ChannelInto("particle-filter", 0)
			if !ok {
				return fmt.Errorf("eval: no channel into particle filter")
			}
			like := filter.NewHDOPLikelihood(0)
			if err := ch.AttachFeature(like); err != nil {
				return err
			}
			got, ok := ch.Feature(filter.FeatureLikelihood)
			if !ok {
				return fmt.Errorf("eval: likelihood feature not retrievable")
			}
			pf.UseLikelihood(got.(filter.Likelihood))
			return nil
		}},
	}

	res := Result{
		ID:     "E5",
		Title:  "Particle filter via Channel Feature vs baselines (Figs. 5-6)",
		Header: []string{"estimator", "positions", "mean (m)", "median (m)", "p95 (m)", "rmse (m)"},
	}

	var rawRMSE, pfRMSE float64
	var series []string
	for _, v := range variants {
		tr := trace.CorridorWalk(b, seed, 6, time.Second)
		// The Fig. 6 regime: indoors the GPS is very noisy
		// (HDOP-scaled) but not systematically drifting — the seam the
		// particle filter's HDOP likelihood and wall constraints can
		// actually exploit.
		g, layer, sink, err := BuildGPSChannelPipeline(tr, gps.Config{
			Seed:            seed + 1,
			IndoorDriftRate: 0.2,
		})
		if err != nil {
			return Result{}, err
		}
		if err := v.build(g, layer); err != nil {
			layer.Close()
			return Result{}, err
		}
		layer.Refresh()
		if _, err := g.Run(0); err != nil {
			layer.Close()
			return Result{}, err
		}

		var positions []positioning.Position
		for _, s := range sink.Received() {
			if pos, ok := s.Payload.(positioning.Position); ok {
				positions = append(positions, pos)
			}
		}
		stats := Stats(PositionErrors(tr, positions))
		res.Rows = append(res.Rows, []string{
			v.name, itoa(stats.N), f1(stats.Mean), f1(stats.Median), f1(stats.P95), f1(stats.RMSE),
		})
		switch v.name {
		case "raw gps":
			rawRMSE = stats.RMSE
		case "particle filter":
			pfRMSE = stats.RMSE
			if cfg.Series {
				series = e5Series(tr, positions)
			}
		}
		layer.Close()
	}

	if pfRMSE > 0 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("particle filter improves raw GPS RMSE by %.1fx", rawRMSE/pfRMSE))
	}
	if pfRMSE >= rawRMSE {
		res.Notes = append(res.Notes, "SHAPE VIOLATION: particle filter did not beat raw GPS")
	}
	res.Notes = append(res.Notes, series...)
	return res, nil
}

// e5Series renders a truth-vs-estimate series for plotting (Fig. 6's
// blue line data).
func e5Series(tr *trace.Trace, estimates []positioning.Position) []string {
	proj := geo.NewProjection(tr.Origin)
	out := []string{"series: t(s) truthE truthN estE estN err(m)"}
	if tr.Len() == 0 {
		return out
	}
	start := tr.Points[0].Time
	for i, pos := range estimates {
		if i%10 != 0 {
			continue
		}
		truth, ok := tr.At(pos.Time)
		if !ok {
			continue
		}
		local := pos.Local
		if !pos.HasLocal {
			local = proj.ToLocal(pos.Global)
		}
		out = append(out, fmt.Sprintf("series: %.0f %.1f %.1f %.1f %.1f %.1f",
			pos.Time.Sub(start).Seconds(),
			truth.Local.East, truth.Local.North,
			local.East, local.North,
			local.Distance(truth.Local)))
	}
	return out
}
