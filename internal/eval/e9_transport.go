package eval

import (
	"fmt"
	"time"

	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/trace"
	"perpos/internal/transport"
)

// RunE9 evaluates the transportation-mode reasoning pipeline the paper
// cites as a motivating application ([4]: segmentation, feature
// extraction, decision-tree classification, HMM post-processing),
// built entirely from Processing Components. The ablation compares the
// raw classifier with the HMM-smoothed output: the HMM must raise
// accuracy and cut mode flicker. The traces' seeds start at 100.
func RunE9() (Result, error) {
	const seed = 100
	origin := geo.Point{Lat: 56.1629, Lon: 10.2039}

	run := func(withHMM bool, seed int64) (acc float64, transitions int, segments int, err error) {
		tr := trace.Multimodal(origin, seed, time.Second)
		g := core.New()
		comps := []core.Component{
			gps.NewReceiver("gps", tr, gps.Config{Seed: seed + 1, ColdStart: 2 * time.Second}),
			gps.NewParser("parser"),
			gps.NewInterpreter("interpreter", 0),
			transport.NewSegmenter("segmenter", 30*time.Second),
			transport.NewFeatureExtractor("features"),
			transport.NewClassifier("classifier"),
		}
		order := []string{"gps", "parser", "interpreter", "segmenter", "features", "classifier"}
		if withHMM {
			comps = append(comps, transport.NewHMMSmoother("hmm", 0))
			order = append(order, "hmm")
		}
		sink := core.NewSink("app", []core.Kind{transport.KindMode})
		comps = append(comps, sink)
		order = append(order, "app")
		for _, c := range comps {
			if _, aerr := g.Add(c); aerr != nil {
				return 0, 0, 0, aerr
			}
		}
		for i := 0; i < len(order)-1; i++ {
			if cerr := g.Connect(order[i], order[i+1], 0); cerr != nil {
				return 0, 0, 0, cerr
			}
		}
		if _, rerr := g.Run(0); rerr != nil {
			return 0, 0, 0, rerr
		}

		var hits, total int
		var last transport.Mode
		for _, s := range sink.Received() {
			est, ok := s.Payload.(transport.ModeEstimate)
			if !ok {
				continue
			}
			mid := est.Start.Add(est.End.Sub(est.Start) / 2)
			truth, found := tr.At(mid)
			if !found || truth.Mode == "" {
				continue
			}
			total++
			if est.Mode.String() == truth.Mode {
				hits++
			}
			if last != 0 && est.Mode != last {
				transitions++
			}
			last = est.Mode
		}
		if total == 0 {
			return 0, 0, 0, fmt.Errorf("no scored segments")
		}
		return float64(hits) / float64(total), transitions, total, nil
	}

	// Average over several trace seeds: single runs are dominated by
	// where the blips happen to fall.
	const runs = 5
	var rawAcc, hmmAcc float64
	var rawTrans, hmmTrans, segments int
	for i := int64(0); i < runs; i++ {
		a, tr1, seg, err := run(false, seed+i*17)
		if err != nil {
			return Result{}, err
		}
		rawAcc += a / runs
		rawTrans += tr1
		segments += seg
		a, tr2, _, err := run(true, seed+i*17)
		if err != nil {
			return Result{}, err
		}
		hmmAcc += a / runs
		hmmTrans += tr2
	}

	// Each trace has 5 true mode transitions (still-walk-bike-drive-
	// walk-still).
	const trueTransitions = 5 * runs

	res := Result{
		ID:     "E9",
		Title:  "Transportation-mode pipeline: classifier vs HMM post-processing ([4])",
		Header: []string{"pipeline", "segments", "accuracy", "mode transitions"},
		Rows: [][]string{
			{"classifier only", itoa(segments), pct(rawAcc), itoa(rawTrans)},
			{"classifier + HMM", itoa(segments), pct(hmmAcc), itoa(hmmTrans)},
			{"ground truth", itoa(segments), "100%", itoa(trueTransitions)},
		},
	}
	if hmmAcc < rawAcc {
		res.Notes = append(res.Notes, "SHAPE VIOLATION: HMM lowered accuracy")
	}
	if hmmTrans > rawTrans {
		res.Notes = append(res.Notes, "SHAPE VIOLATION: HMM increased flicker")
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"HMM post-processing: accuracy %s -> %s, transitions %d -> %d (true: %d)",
		pct(rawAcc), pct(hmmAcc), rawTrans, hmmTrans, trueTransitions))
	return res, nil
}
