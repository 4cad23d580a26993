package runtime_test

import (
	"testing"
	"time"

	"perpos/examples/configs"
	"perpos/internal/building"
	"perpos/internal/catalog"
	"perpos/internal/chaos"
	"perpos/internal/config"
	"perpos/internal/core"
	"perpos/internal/energy"
	"perpos/internal/filter"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/runtime"
	"perpos/internal/trace"
	"perpos/internal/wifi"
)

// The fusion tests and benchmarks run the shipped pipeline definitions
// of examples/configs through config.Loader, as the fusion-paced
// workload does: layout, supervision reroutes and rules come from the
// JSON, and a test binds only its sensors and a small seeded particle
// filter per session. They live in package runtime_test because
// internal/config imports this package.

// fusionWorld is the simulated deployment the fusion fixtures share:
// the evaluation building, its WiFi network and a survey of it, and a
// long indoor walk, so neither source exhausts mid-test (~21 min of
// trace at a 5 ms source interval is several seconds of wall clock).
type fusionWorld struct {
	b  *building.Building
	n  *wifi.Network
	db *wifi.Database
	tr *trace.Trace
}

func newFusionWorld() *fusionWorld {
	b := building.Evaluation()
	n := wifi.DefaultDeployment(b)
	return &fusionWorld{
		b:  b,
		n:  n,
		db: wifi.Survey(n, 0, wifi.SurveyConfig{Seed: 1, GridStep: 4}),
		tr: trace.CorridorWalk(b, 11, 60, time.Second),
	}
}

// shipped parses the embedded definition name and returns it with a
// loader that resolves it against the standard registry.
func (w *fusionWorld) shipped(tb testing.TB, name string) (*config.Loader, config.Pipeline) {
	tb.Helper()
	reg, err := catalog.Standard(catalog.Deps{Building: w.b, Database: w.db})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := configs.Load(name)
	if err != nil {
		tb.Fatal(err)
	}
	return &config.Loader{
		Registry: reg,
		Features: map[string]func() core.Feature{
			"hdop":     func() core.Feature { return gps.NewHDOPFeature() },
			"periodic": func() core.Feature { return energy.NewPeriodicStrategy(5*time.Second, time.Second) },
		},
	}, p
}

// manager builds a manager for rules-fusion.json, after edit (when
// non-nil) clears the blocks the caller does not run.
func (w *fusionWorld) manager(tb testing.TB, edit func(*config.Pipeline), base runtime.SessionConfig) *runtime.Manager {
	tb.Helper()
	loader, p := w.shipped(tb, "rules-fusion.json")
	if edit != nil {
		edit(&p)
	}
	m, err := loader.Manager(p, base)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// base is the session config the fusion fixtures share: gps builds the
// receiver, each session's WiFi sensor is chaos-wrapped and reported
// through wifiChaos (when non-nil), and its particle filter holds 100
// particles seeded 2.
func (w *fusionWorld) base(gpsSource func(id string) core.Component, wifiChaos **chaos.Source) runtime.SessionConfig {
	return runtime.SessionConfig{
		Overrides: func(string) []core.InstantiateOption {
			return []core.InstantiateOption{
				core.WithComponentOverride("gps", gpsSource),
				core.WithComponentOverride("wifi", func(id string) core.Component {
					src := chaos.WrapSource(wifi.NewSensor(id, w.n, w.tr, time.Second, 31))
					if wifiChaos != nil {
						*wifiChaos = src
					}
					return src
				}),
				w.filter(100),
			}
		},
		Provider: positioning.ProviderInfo{Technology: "fusion", TypicalAccuracy: 3},
		History:  16,
	}
}

// receiver builds the walk's GPS receiver.
func (w *fusionWorld) receiver(coldStart time.Duration) func(id string) core.Component {
	return func(id string) core.Component {
		return gps.NewReceiver(id, w.tr, gps.Config{Seed: 21, ColdStart: coldStart})
	}
}

// filter binds a session's particle-filter slot, on the revisions that
// declare one, to a filter of the given size seeded 2.
func (w *fusionWorld) filter(particles int) core.InstantiateOption {
	return core.WithOptionalOverride("particle-filter", func(id string) core.Component {
		return filter.NewParticleFilter(id, w.b, filter.Config{Particles: particles, Seed: 2})
	})
}

// onlyRule keeps one rule of the pipeline's rules block.
func onlyRule(tb testing.TB, name string) func(*config.Pipeline) {
	return func(p *config.Pipeline) {
		for _, r := range p.Rules.Rules {
			if r.Name == name {
				p.Rules.Rules = []config.RuleDef{r}
				return
			}
		}
		tb.Fatalf("rules-fusion.json has no rule %q", name)
	}
}

// noRules clears the pipeline's rules block.
func noRules(p *config.Pipeline) { p.Rules = nil }
