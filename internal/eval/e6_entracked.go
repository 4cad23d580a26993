package eval

import (
	"fmt"
	"time"

	"perpos/internal/channel"
	"perpos/internal/core"
	"perpos/internal/energy"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

// e6Policy describes one reporting policy run.
type e6Policy struct {
	name      string
	startOff  bool
	threshold float64       // EnTracked threshold; 0 = not EnTracked
	period    time.Duration // periodic baseline; 0 = not periodic
}

// RunE6 reproduces §3.3 / Fig. 7: the EnTracked power strategy
// implemented as a Component Feature plus Channel Feature, swept over
// thresholds, against always-on and periodic baselines. The table is
// the energy/accuracy trade-off (the shape of EnTracked [3]). Every
// policy replays the walk of seed 80.
func RunE6() (Result, error) {
	policies := []e6Policy{{name: "always-on"}}
	for _, p := range []time.Duration{30 * time.Second, 60 * time.Second, 120 * time.Second} {
		policies = append(policies, e6Policy{
			name:     fmt.Sprintf("periodic %ds", int(p.Seconds())),
			startOff: true,
			period:   p,
		})
	}
	for _, th := range []float64{25, 50, 100} {
		policies = append(policies, e6Policy{
			name:      fmt.Sprintf("entracked %dm", int(th)),
			startOff:  true,
			threshold: th,
		})
	}

	res := Result{
		ID:     "E6",
		Title:  "EnTracked energy/accuracy trade-off (Fig. 7, §3.3)",
		Header: []string{"policy", "energy (J)", "gps (J)", "radio (J)", "duty", "reports", "mean err (m)", "p95 err (m)"},
	}

	var alwaysOnJ, entracked50J float64
	var alwaysOnErr, entracked50Err float64
	for _, p := range policies {
		sum, errStats, err := runE6Policy(80, p)
		if err != nil {
			return Result{}, fmt.Errorf("policy %s: %w", p.name, err)
		}
		res.Rows = append(res.Rows, []string{
			p.name,
			f1(sum.TotalJ), f1(sum.GPSJ), f1(sum.RadioJ),
			pct(sum.DutyCycle()), itoa(sum.Reports),
			f1(errStats.Mean), f1(errStats.P95),
		})
		switch p.name {
		case "always-on":
			alwaysOnJ = sum.TotalJ
			alwaysOnErr = errStats.Mean
		case "entracked 50m":
			entracked50J = sum.TotalJ
			entracked50Err = errStats.Mean
		}
	}

	if entracked50J > 0 && alwaysOnJ > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"entracked 50m uses %.0f%% of always-on energy (error %.1f m vs %.1f m)",
			100*entracked50J/alwaysOnJ, entracked50Err, alwaysOnErr))
		if entracked50J > 0.5*alwaysOnJ {
			res.Notes = append(res.Notes, "SHAPE VIOLATION: expected well under half of always-on energy")
		}
	}
	return res, nil
}

// runE6Policy executes one policy over the standard pause-and-go trace.
func runE6Policy(seed int64, p e6Policy) (energy.Summary, ErrorStats, error) {
	origin := geo.Point{Lat: 56.1629, Lon: 10.2039}
	tr := trace.PauseAndGo(origin, seed, 4, 400, 1.4, 3*time.Minute, time.Second)
	acct := energy.NewAccountant(energy.DefaultModel())

	var opts []gps.ReceiverOption
	opts = append(opts, gps.WithTick(acct.Tick))
	if p.startOff {
		opts = append(opts, gps.StartOff())
	}
	recv := gps.NewReceiver("gps", tr,
		gps.Config{Seed: seed + 5, ColdStart: 15 * time.Second, WarmStart: 5 * time.Second}, opts...)

	g := core.New()
	comps := []core.Component{recv, gps.NewParser("parser"), gps.NewInterpreter("interpreter", 0)}
	for _, c := range comps {
		if _, err := g.Add(c); err != nil {
			return energy.Summary{}, ErrorStats{}, err
		}
	}
	sink := core.NewSink("server", []core.Kind{positioning.KindPosition})
	if _, err := g.Add(sink); err != nil {
		return energy.Summary{}, ErrorStats{}, err
	}
	for _, c := range []struct{ from, to string }{
		{"gps", "parser"}, {"parser", "interpreter"}, {"interpreter", "server"},
	} {
		if err := g.Connect(c.from, c.to, 0); err != nil {
			return energy.Summary{}, ErrorStats{}, err
		}
	}

	layer := channel.NewLayer(g)
	defer layer.Close()
	ch, ok := layer.ChannelInto("server", 0)
	if !ok {
		return energy.Summary{}, ErrorStats{}, fmt.Errorf("no channel into server")
	}

	var reports func() []positioning.Position
	switch {
	case p.threshold > 0:
		recvNode, _ := g.Node("gps")
		strat := energy.NewPowerStrategy(energy.PowerStrategyConfig{
			Threshold: p.threshold,
			Warmup:    6 * time.Second,
		})
		if err := recvNode.AttachFeature(strat); err != nil {
			return energy.Summary{}, ErrorStats{}, err
		}
		ent := energy.NewEnTrackedFeature(acct)
		if err := ch.AttachFeature(ent); err != nil {
			return energy.Summary{}, ErrorStats{}, err
		}
		got, ok := ch.Feature(energy.FeaturePowerStrategy)
		if !ok {
			return energy.Summary{}, ErrorStats{}, fmt.Errorf("power strategy not visible")
		}
		ent.Connect(got.(energy.StrategyControl))
		reports = ent.Reports
	case p.period > 0:
		recvNode, _ := g.Node("gps")
		strat := energy.NewPeriodicStrategy(p.period, 6*time.Second)
		if err := recvNode.AttachFeature(strat); err != nil {
			return energy.Summary{}, ErrorStats{}, err
		}
		rep := energy.NewReporterFeature(acct, strat)
		if err := ch.AttachFeature(rep); err != nil {
			return energy.Summary{}, ErrorStats{}, err
		}
		recv.PowerOn()
		reports = rep.Reports
	default:
		rep := energy.NewReporterFeature(acct, nil)
		if err := ch.AttachFeature(rep); err != nil {
			return energy.Summary{}, ErrorStats{}, err
		}
		reports = rep.Reports
	}

	if _, err := g.Run(0); err != nil {
		return energy.Summary{}, ErrorStats{}, err
	}
	errs := TrackingError(tr, reports())
	return acct.Summary(), Stats(errs), nil
}
