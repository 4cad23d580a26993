// Package catalog preloads a registry with the repository's standard
// Processing Component types, so whole pipelines can be assembled
// declaratively (§2.1) — the role the OSGi bundle repository played for
// the original middleware. It also builds the two GPS pipelines that
// Go callers instantiate directly, on one GPS chain: GPSBlueprint
// (perfbench's GPS workloads and the Fig. 4 experiments) and
// KalmanBlueprint (the cluster tier's sessions). The
// Fig. 2 fusion pipeline, its supervision reroutes and its adaptation
// rules are data, not Go: examples/configs/rules-fusion.json, resolved
// through this registry by config.Loader.
//
// Registration order matters: the resolver instantiates the first
// registered type whose output satisfies an open requirement, so more
// specific providers (the WiFi engine, which needs a surveyed database)
// are registered after the generic GPS chain.
package catalog

import (
	"fmt"

	"perpos/internal/building"
	"perpos/internal/core"
	"perpos/internal/filter"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/registry"
	"perpos/internal/transport"
	"perpos/internal/wifi"
)

// Deps carries the shared state some component types need.
type Deps struct {
	// Building enables the Resolver, ParticleFilter and WiFi engine
	// registrations.
	Building *building.Building
	// Database enables the WiFi positioning engine registration.
	Database *wifi.Database
}

// Standard returns a registry with the standard component types. The
// GPS chain (Parser, Interpreter) is always available; building- and
// database-dependent types are added when Deps provides their inputs.
func Standard(deps Deps) (*registry.Registry, error) {
	r := &registry.Registry{}
	regs := []registry.Registration{
		{
			Name: "Parser",
			Spec: gps.NewParser("proto").Spec(),
			New:  func(id string) core.Component { return gps.NewParser(id) },
		},
		{
			Name: "Interpreter",
			Spec: gps.NewInterpreter("proto", 0).Spec(),
			New:  func(id string) core.Component { return gps.NewInterpreter(id, 0) },
		},
		{
			Name: "Segmenter",
			Spec: transport.NewSegmenter("proto", 0).Spec(),
			New:  func(id string) core.Component { return transport.NewSegmenter(id, 0) },
		},
		{
			Name: "FeatureExtractor",
			Spec: transport.NewFeatureExtractor("proto").Spec(),
			New:  func(id string) core.Component { return transport.NewFeatureExtractor(id) },
		},
		{
			Name: "ModeClassifier",
			Spec: transport.NewClassifier("proto").Spec(),
			New:  func(id string) core.Component { return transport.NewClassifier(id) },
		},
		{
			Name: "HMMSmoother",
			Spec: transport.NewHMMSmoother("proto", 0).Spec(),
			New:  func(id string) core.Component { return transport.NewHMMSmoother(id, 0) },
		},
		// Registered after the Parser so an open sentence requirement
		// resolves to the parser, never to a pass-through filter. A rule
		// whose insert action names this type (rules-fusion.json's
		// accuracy-filter) instantiates it when it engages.
		{
			Name: "HDOPFilter",
			Spec: gps.NewHDOPFilter("proto", DefaultMaxHDOP).Spec(),
			New:  func(id string) core.Component { return gps.NewHDOPFilter(id, DefaultMaxHDOP) },
		},
	}
	if deps.Building != nil {
		b := deps.Building
		// WiFiPositioning registers before the Resolver and the
		// ParticleFilter: the resolver prefers earlier registrations, so
		// position requirements resolve to the concrete technology chain
		// before the generic fusion component.
		if deps.Database != nil {
			db := deps.Database
			regs = append(regs, registry.Registration{
				Name: "WiFiPositioning",
				Spec: wifi.NewEngine("proto", db, b, 0).Spec(),
				New: func(id string) core.Component {
					return wifi.NewEngine(id, db, b, 0)
				},
			})
		}
		regs = append(regs,
			registry.Registration{
				Name: "Resolver",
				Spec: wifi.NewResolver("proto", b).Spec(),
				New:  func(id string) core.Component { return wifi.NewResolver(id, b) },
			},
			registry.Registration{
				Name: "ParticleFilter",
				Spec: filter.NewParticleFilter("proto", b, filter.Config{}).Spec(),
				New: func(id string) core.Component {
					return filter.NewParticleFilter(id, b, filter.Config{})
				},
			},
		)
	}
	for _, reg := range regs {
		if err := r.Register(reg); err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
	}
	return r, nil
}

// GPSBlueprint returns the blueprint of the plain GPS pipeline (the
// outdoor half of Fig. 1): gps -> Parser -> Interpreter -> app. The
// "gps" source and "app" sink are placeholders bound per instantiation
// (core.WithComponentOverride) — one tracked target, one instance.
func GPSBlueprint() (*core.Blueprint, error) {
	return gpsChain()
}

// KalmanBlueprint returns the GPS tracking pipeline with a Kalman
// smoother before the sink: gps → parser → interpreter → kalman → app.
// It is the cluster tier's reference workload: the filter's state is
// small, serializable and bit-exactly comparable, so a handed-off or
// failed-over session can prove its estimate survived the move intact.
// proj (optional) projects global-only fixes into a local metric frame;
// processNoise <= 0 uses the pedestrian default.
func KalmanBlueprint(proj *geo.Projection, processNoise float64) (*core.Blueprint, error) {
	return gpsChain(stage{"kalman", func(id string) core.Component { return filter.NewKalmanFilter(id, processNoise, proj) }})
}

// stage is one component slot of a chain blueprint.
type stage struct {
	id      string
	factory core.ComponentFactory
}

// gpsChain wires the GPS chain gps -> parser -> interpreter, then the
// given stages, then app, each into port 0 of the next.
func gpsChain(stages ...stage) (*core.Blueprint, error) {
	steps := append([]stage{
		{"gps", nil},
		{"parser", func(id string) core.Component { return gps.NewParser(id) }},
		{"interpreter", func(id string) core.Component { return gps.NewInterpreter(id, 0) }},
	}, stages...)
	steps = append(steps, stage{"app", nil})
	bp := core.NewBlueprint()
	for _, s := range steps {
		if err := bp.AddComponent(s.id, s.factory); err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
	}
	for i := 1; i < len(steps); i++ {
		if err := bp.Connect(steps[i-1].id, steps[i].id, 0); err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
	}
	return bp, nil
}

// DefaultMaxHDOP is the HDOPFilter registration's cutoff: sentences
// with a worse (higher) HDOP are dropped. HDOP up to ~2 is good; above
// ~4-5 the fix is poor.
const DefaultMaxHDOP = 4.0
