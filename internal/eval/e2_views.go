package eval

import (
	"fmt"
	"strings"
	"time"

	"perpos/examples/configs"
	"perpos/internal/building"
	"perpos/internal/catalog"
	"perpos/internal/channel"
	"perpos/internal/config"
	"perpos/internal/core"
	"perpos/internal/energy"
	"perpos/internal/filter"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/trace"
	"perpos/internal/wifi"
)

// FusionLoader resolves the shipped fusion definitions of
// examples/configs (rules-fusion.json and fusion-upgrade.json) against
// the standard registry over the building and its WiFi survey, with the
// two features they name: the parser's "hdop" and the "periodic" power
// strategy a rule attaches to the GPS receiver.
func FusionLoader(b *building.Building, db *wifi.Database) (*config.Loader, error) {
	reg, err := catalog.Standard(catalog.Deps{Building: b, Database: db})
	if err != nil {
		return nil, err
	}
	return &config.Loader{
		Registry: reg,
		Features: map[string]func() core.Feature{
			"hdop":     func() core.Feature { return gps.NewHDOPFeature() },
			"periodic": func() core.Feature { return energy.NewPeriodicStrategy(5*time.Second, time.Second) },
		},
	}, nil
}

// BuildFig2 instantiates the pipeline of Fig. 2 — GPS -> Parser ->
// Interpreter and WiFi -> Positioning feeding a Particle Filter, whose
// output reaches the application — from its one definition,
// rules-fusion.json's layout, and returns the graph, the channel layer,
// the particle filter, and the provider the application uses. It binds
// the sensors to a short corridor walk and a seeded 300-particle
// filter. E2, perpos-run's default mode and perpos-inspect share it.
func BuildFig2(seed int64) (*core.Graph, *channel.Layer, *filter.ParticleFilter, *positioning.Provider, error) {
	b := building.Evaluation()
	tr := trace.CorridorWalk(b, seed, 5, time.Second)
	network := wifi.DefaultDeployment(b)
	db := wifi.Survey(network, 0, wifi.SurveyConfig{Seed: seed + 1})
	loader, err := FusionLoader(b, db)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	p, err := configs.Load("rules-fusion.json")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	bp, err := loader.Blueprint(p)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	pf := filter.NewParticleFilter("particle-filter", b, filter.Config{Particles: 300, Seed: seed + 2})
	// The provider's feature lookup closes over channels assigned once
	// the channel layer exists below.
	var appChannel, gpsChannel *channel.Channel
	providerLookup := func(name string) (any, bool) {
		for _, c := range []*channel.Channel{appChannel, gpsChannel} {
			if c == nil {
				continue
			}
			if f, ok := c.Feature(name); ok {
				return f, true
			}
		}
		return nil, false
	}
	provider := positioning.NewProvider("fused", positioning.ProviderInfo{
		Technology:      "particle-filter",
		TypicalAccuracy: 3,
		RoomLevel:       true,
	}, providerLookup)

	g, err := bp.Instantiate(
		core.WithComponentOverride("gps", func(id string) core.Component {
			return gps.NewReceiver(id, tr, gps.Config{Seed: seed + 3, ColdStart: 2 * time.Second})
		}),
		core.WithComponentOverride("wifi", func(id string) core.Component {
			return wifi.NewSensor(id, network, tr, 2*time.Second, seed+4)
		}),
		core.WithComponentOverride("particle-filter", func(string) core.Component { return pf }),
		core.WithComponentOverride("app", func(id string) core.Component {
			return positioning.NewProviderSink(id, provider)
		}),
	)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	// Fig. 5's Likelihood Channel Feature on the GPS channel. The shipped
	// definition attaches none, so its sessions' filters score GPS fixes
	// with the accuracy-based fallback (filter.UseLikelihoodForPort).
	layer := channel.NewLayer(g)
	like := filter.NewHDOPLikelihood(0)
	ch, ok := layer.ChannelInto("particle-filter", 0)
	if !ok {
		layer.Close()
		return nil, nil, nil, nil, fmt.Errorf("eval: no GPS channel into the particle filter")
	}
	if err := ch.AttachFeature(like); err != nil {
		layer.Close()
		return nil, nil, nil, nil, err
	}
	pf.UseLikelihood(like)

	// Expose the channels' features at the Positioning Layer through
	// the provider's lookup (assigning the closed-over channels).
	gpsChannel = ch
	appChannel, _ = layer.ChannelInto("app", 0)

	return g, layer, pf, provider, nil
}

// RunE2 verifies the three levels of abstraction of Fig. 2 against the
// structure the figure shows: the PSL component tree, the PCL channel
// view, and the Positioning Layer provider view with features visible
// at the top.
func RunE2() (Result, error) {
	g, layer, _, provider, err := BuildFig2(40)
	if err != nil {
		return Result{}, err
	}
	defer layer.Close()

	psComponents := len(g.Nodes())
	psEdges := len(g.Edges())
	view := layer.View()

	_, likelihoodVisible := provider.Feature(filter.FeatureLikelihood)

	var channelIDs []string
	for _, c := range view.Channels {
		channelIDs = append(channelIDs, c.ID)
	}

	res := Result{
		ID:     "E2",
		Title:  "Three levels of abstraction (Fig. 2)",
		Header: []string{"layer", "element", "value"},
		Rows: [][]string{
			{"PSL", "processing components", itoa(psComponents)},
			{"PSL", "connections", itoa(psEdges)},
			{"PCL", "data sources", strings.Join(view.Sources, ", ")},
			{"PCL", "merge components", strings.Join(view.Merges, ", ")},
			{"PCL", "channels", itoa(len(view.Channels))},
			{"PCL", "channel ids", strings.Join(channelIDs, ", ")},
			{"PL", "provider", provider.Name()},
			{"PL", "likelihood feature visible", fmt.Sprintf("%v", likelihoodVisible)},
		},
	}
	// Structural expectations from the figure.
	if psComponents != 7 {
		res.Notes = append(res.Notes, fmt.Sprintf("expected 7 PSL components, got %d", psComponents))
	}
	if len(view.Sources) != 2 || len(view.Merges) != 1 || len(view.Channels) != 3 {
		res.Notes = append(res.Notes, "PCL view does not match Fig. 2 (2 sources, 1 merge, 3 channels)")
	}
	if !likelihoodVisible {
		res.Notes = append(res.Notes, "likelihood feature not visible at the Positioning Layer")
	}
	return res, nil
}
