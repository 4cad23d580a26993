package eval

import (
	"fmt"
	"time"

	"perpos/internal/building"
	"perpos/internal/channel"
	"perpos/internal/core"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

// BuildGPSChannelPipeline assembles the Fig. 4 pipeline — GPS ->
// Parser -> Interpreter -> app — over the given trace, returning the
// graph and channel layer. The HDOP feature is attached so data trees
// carry feature data, as in Fig. 5. Zero fields of cfg take the
// receiver defaults.
func BuildGPSChannelPipeline(tr *trace.Trace, cfg gps.Config) (*core.Graph, *channel.Layer, *core.Sink, error) {
	if cfg.ColdStart == 0 {
		cfg.ColdStart = 2 * time.Second
	}
	g := core.New()
	comps := []core.Component{
		gps.NewReceiver("gps", tr, cfg),
		gps.NewParser("parser"),
		gps.NewInterpreter("interpreter", 0),
	}
	for _, c := range comps {
		if _, err := g.Add(c); err != nil {
			return nil, nil, nil, err
		}
	}
	sink := core.NewSink("app", []core.Kind{positioning.KindPosition})
	if _, err := g.Add(sink); err != nil {
		return nil, nil, nil, err
	}
	parserNode, _ := g.Node("parser")
	if err := parserNode.AttachFeature(gps.NewHDOPFeature()); err != nil {
		return nil, nil, nil, err
	}
	for _, c := range []struct{ from, to string }{
		{"gps", "parser"}, {"parser", "interpreter"}, {"interpreter", "app"},
	} {
		if err := g.Connect(c.from, c.to, 0); err != nil {
			return nil, nil, nil, err
		}
	}
	layer := channel.NewLayer(g)
	return g, layer, sink, nil
}

// RunE3 reproduces the Fig. 4 data tree for the GPS channel: every
// delivered position groups the NMEA sentences and raw strings that
// produced it, ordered by logical time. Reported: tree shape statistics
// over a full run plus one concrete rendered tree.
func RunE3() (Result, error) {
	b := building.Evaluation()
	tr := trace.CorridorWalk(b, 50, 4, time.Second)
	g, layer, _, err := BuildGPSChannelPipeline(tr, gps.Config{Seed: 51})
	if err != nil {
		return Result{}, err
	}
	defer layer.Close()

	ch, ok := layer.ChannelInto("app", 0)
	if !ok {
		return Result{}, fmt.Errorf("eval: no channel into app")
	}

	var trees, depth3 int
	var sizeSum, rawSum, nmeaSum, hdopSum int
	var example string
	collect := &treeCollector{}
	if err := ch.AttachFeature(collect); err != nil {
		return Result{}, err
	}

	if _, err := g.Run(0); err != nil {
		return Result{}, err
	}

	for _, tree := range collect.trees {
		trees++
		if tree.Depth() == 3 {
			depth3++
		}
		sizeSum += tree.Size()
		rawSum += len(tree.Data(gps.KindRaw))
		nmeaSum += len(tree.Data(gps.KindSentence))
		for _, e := range tree.All() {
			if e.Sample.FromFeature == gps.FeatureHDOP {
				hdopSum++
			}
		}
		if example == "" && tree.Size() >= 6 {
			example = tree.String()
		}
	}
	if trees == 0 {
		return Result{}, fmt.Errorf("eval: no data trees delivered")
	}

	res := Result{
		ID:     "E3",
		Title:  "GPS channel data trees with logical time (Fig. 4)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"channel deliveries (trees)", itoa(trees)},
			{"trees with 3 layers", pct(float64(depth3) / float64(trees))},
			{"mean tree size (elements)", f1(float64(sizeSum) / float64(trees))},
			{"mean raw strings per tree", f1(float64(rawSum) / float64(trees))},
			{"mean NMEA sentences per tree", f1(float64(nmeaSum) / float64(trees))},
			{"feature-data elements total", itoa(hdopSum)},
		},
		Notes: []string{"example tree:\n" + example},
	}
	return res, nil
}

// treeCollector is a channel feature that keeps every delivered tree.
type treeCollector struct {
	trees []*channel.DataTree
}

func (t *treeCollector) FeatureName() string { return "tree-collector" }

func (t *treeCollector) Apply(tree *channel.DataTree) {
	t.trees = append(t.trees, tree)
}
