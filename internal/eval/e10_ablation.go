package eval

import (
	"fmt"
	"time"

	"perpos/internal/building"
	"perpos/internal/filter"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

// E10Config parameterizes the particle-count ablation.
type E10Config struct {
	// Particles are the population sizes to sweep.
	Particles []int
}

func (c E10Config) withDefaults() E10Config {
	if len(c.Particles) == 0 {
		c.Particles = []int{50, 100, 200, 400, 800, 1600}
	}
	return c
}

// RunE10 sweeps the particle filter's population size over the E5
// scenario — the accuracy/cost design-choice ablation DESIGN.md calls
// out. Expected shape: accuracy improves with population and saturates;
// cost grows linearly. The walk has seed 110.
func RunE10(cfg E10Config) (Result, error) {
	const seed = 110
	cfg = cfg.withDefaults()
	b := building.Evaluation()

	res := Result{
		ID:     "E10",
		Title:  "Particle-count ablation over the Fig. 6 scenario",
		Header: []string{"particles", "mean (m)", "rmse (m)", "p95 (m)", "us/update"},
	}

	var firstRMSE, lastRMSE float64
	for _, particles := range cfg.Particles {
		tr := trace.CorridorWalk(b, seed, 6, time.Second)
		g, layer, sink, err := BuildGPSChannelPipeline(tr, gps.Config{
			Seed:            seed + 1,
			IndoorDriftRate: 0.2,
		})
		if err != nil {
			return Result{}, err
		}
		pf := filter.NewParticleFilter("particle-filter", b, filter.Config{Particles: particles, Seed: seed + 2})
		if err := g.InsertBetween(pf, "interpreter", "app", 0, 0); err != nil {
			layer.Close()
			return Result{}, err
		}
		layer.Refresh()
		ch, ok := layer.ChannelInto("particle-filter", 0)
		if !ok {
			layer.Close()
			return Result{}, fmt.Errorf("e10: no channel into the filter")
		}
		like := filter.NewHDOPLikelihood(0)
		if err := ch.AttachFeature(like); err != nil {
			layer.Close()
			return Result{}, err
		}
		pf.UseLikelihood(like)

		start := time.Now()
		if _, err := g.Run(0); err != nil {
			layer.Close()
			return Result{}, err
		}
		elapsed := time.Since(start)
		layer.Close()

		var positions []positioning.Position
		for _, s := range sink.Received() {
			if pos, ok := s.Payload.(positioning.Position); ok {
				positions = append(positions, pos)
			}
		}
		stats := Stats(PositionErrors(tr, positions))
		updates, _, _ := pf.Stats()
		usPerUpdate := 0.0
		if updates > 0 {
			usPerUpdate = float64(elapsed.Microseconds()) / float64(updates)
		}
		res.Rows = append(res.Rows, []string{
			itoa(particles), f1(stats.Mean), f1(stats.RMSE), f1(stats.P95),
			f1(usPerUpdate),
		})
		if firstRMSE == 0 {
			firstRMSE = stats.RMSE
		}
		lastRMSE = stats.RMSE
	}

	if lastRMSE > firstRMSE {
		res.Notes = append(res.Notes,
			"note: accuracy did not improve from smallest to largest population")
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("RMSE %s m at %d particles vs %s m at %d",
			f1(firstRMSE), cfg.Particles[0], f1(lastRMSE), cfg.Particles[len(cfg.Particles)-1]))
	return res, nil
}
