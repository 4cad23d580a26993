package eval

import (
	"time"

	"perpos/internal/building"
	"perpos/internal/core"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

// RunE4 reproduces §3.1: detecting unreliable GPS readings with the
// NumberOfSatellites Component Feature and an inserted filter
// component. A walk that moves indoors makes the receiver emit
// drifting low-satellite ghost fixes; the experiment compares the
// position stream with and without the filter.
func RunE4() (Result, error) {
	const seed, minSats = 60, 6
	b := building.Evaluation()

	run := func(withFilter bool) (delivered int, unreliable int, stats ErrorStats, err error) {
		// The commute trace walks in from outdoors: good fixes outside,
		// drifting low-satellite ghosts inside — the filter must drop
		// the ghosts and keep the outdoor stream.
		tr := trace.Commute(b, seed, 200, 500*time.Millisecond)
		g := core.New()
		comps := []core.Component{
			gps.NewReceiver("gps", tr, gps.Config{Seed: seed + 1, ColdStart: 2 * time.Second}),
			gps.NewParser("parser"),
			gps.NewInterpreter("interpreter", 0),
		}
		for _, c := range comps {
			if _, aerr := g.Add(c); aerr != nil {
				return 0, 0, ErrorStats{}, aerr
			}
		}
		sink := core.NewSink("app", []core.Kind{positioning.KindPosition})
		if _, aerr := g.Add(sink); aerr != nil {
			return 0, 0, ErrorStats{}, aerr
		}
		parserNode, _ := g.Node("parser")
		if aerr := parserNode.AttachFeature(gps.NewSatellitesFeature()); aerr != nil {
			return 0, 0, ErrorStats{}, aerr
		}
		for _, c := range []struct{ from, to string }{
			{"gps", "parser"}, {"parser", "interpreter"}, {"interpreter", "app"},
		} {
			if aerr := g.Connect(c.from, c.to, 0); aerr != nil {
				return 0, 0, ErrorStats{}, aerr
			}
		}
		if withFilter {
			// The §3.1 adaptation: splice the filter in after the Parser
			// without touching any component's code.
			if aerr := g.InsertBetween(gps.NewSatelliteFilter("satfilter", minSats),
				"parser", "interpreter", 0, 0); aerr != nil {
				return 0, 0, ErrorStats{}, aerr
			}
		}
		if _, rerr := g.Run(0); rerr != nil {
			return 0, 0, ErrorStats{}, rerr
		}

		var positions []positioning.Position
		for _, s := range sink.Received() {
			pos, ok := s.Payload.(positioning.Position)
			if !ok {
				continue
			}
			positions = append(positions, pos)
			if n, ok := s.IntAttr(gps.AttrSatellites); ok && n < minSats {
				unreliable++
			}
		}
		errs := PositionErrors(tr, positions)
		return len(positions), unreliable, Stats(errs), nil
	}

	without, unWithout, statsWithout, err := run(false)
	if err != nil {
		return Result{}, err
	}
	with, unWith, statsWith, err := run(true)
	if err != nil {
		return Result{}, err
	}

	res := Result{
		ID:     "E4",
		Title:  "Unreliable-reading filter via NumberOfSatellites feature (§3.1)",
		Header: []string{"pipeline", "fixes delivered", "low-sat fixes", "mean err (m)", "p95 err (m)"},
		Rows: [][]string{
			{"without filter", itoa(without), itoa(unWithout), f1(statsWithout.Mean), f1(statsWithout.P95)},
			{"with filter", itoa(with), itoa(unWith), f1(statsWith.Mean), f1(statsWith.P95)},
		},
	}
	if unWith > 0 {
		res.Notes = append(res.Notes, "filter leaked low-satellite fixes")
	}
	if statsWith.Mean >= statsWithout.Mean {
		res.Notes = append(res.Notes, "filter did not reduce mean error")
	}
	removed := 1 - safeDiv(with, without)
	res.Notes = append(res.Notes,
		"filter removed "+pct(removed)+" of delivered fixes (ghost fixes while indoors)")
	return res, nil
}
