package energy

import (
	"sync"
	"time"

	"perpos/internal/channel"
	"perpos/internal/core"
	"perpos/internal/gps"
	"perpos/internal/positioning"
)

// Feature names of the §3.3 reimplementation.
const (
	// FeaturePowerStrategy is the Component Feature controlling the
	// sensor wrapper's duty cycle (Fig. 7 "Power Strategy").
	FeaturePowerStrategy = "power.strategy"
	// FeaturePeriodic is the periodic-polling baseline strategy.
	FeaturePeriodic = "power.periodic"
	// FeatureEnTracked is the Channel Feature monitoring the Interpreter
	// output (Fig. 7 "EnTracked Settings").
	FeatureEnTracked = "entracked"
)

// PowerControllable is the device control surface a power strategy
// drives; *gps.Receiver implements it.
type PowerControllable interface {
	PowerOn()
	PowerOff()
	Mode() gps.Mode
}

// TickSource lets a strategy observe device epochs; *gps.Receiver
// implements it.
type TickSource interface {
	AddTick(gps.TickFunc)
}

// MotionSource reports whether the device is in motion — the
// accelerometer of the original EnTracked system. *gps.Receiver
// implements it (simulated; see DESIGN.md substitutions).
type MotionSource interface {
	Moving() bool
}

// StrategyControl is the functional interface the EnTracked Channel
// Feature calls on the Power Strategy feature ("provides methods for
// controlling the operation mode of the updating scheme").
type StrategyControl interface {
	// NotifyFix informs the strategy that a position with the given
	// ground speed (m/s) and accuracy (m) was delivered and reported.
	NotifyFix(speedMS, accuracy float64)
	// SetThreshold sets the maximum tolerated distance between two
	// consecutive position updates, in metres.
	SetThreshold(m float64)
	// Threshold returns the current threshold.
	Threshold() float64
}

// PowerStrategy is the EnTracked client-side updating scheme as a
// Component Feature (§3.3): attached to the sensor wrapper (the
// receiver node), it powers the GPS down after each delivered fix and
// estimates — from the last known speed and the update threshold — when
// the target could have moved far enough that a new fix is needed,
// powering the GPS back up just early enough to cover reacquisition.
type PowerStrategy struct {
	mu        sync.Mutex
	ctrl      PowerControllable
	motion    MotionSource
	threshold float64
	minSpeed  float64 // floor for measured speeds
	warmup    time.Duration

	elapsed    time.Duration
	lastFixAt  time.Duration
	movingTime time.Duration // motion-sensed movement since the last fix
	estSpeed   float64
	accuracy   float64
	haveFix    bool
}

var (
	_ core.BindableFeature = (*PowerStrategy)(nil)
	_ StrategyControl      = (*PowerStrategy)(nil)
)

// maxSpeed is the target speed, in m/s, the strategy assumes before its
// first fix.
const maxSpeed = 3

// PowerStrategyConfig parameterizes the updating scheme.
type PowerStrategyConfig struct {
	// Threshold is the maximum tolerated movement between updates in
	// metres (default 50).
	Threshold float64
	// MinSpeed floors measured speeds so a momentarily stationary
	// target still wakes the device eventually. The default is 0.3: a
	// resting target is EnTracked's biggest energy win, so the re-check
	// pace is slow.
	MinSpeed float64
	// Warmup is the reacquisition time budgeted when scheduling the
	// wake-up (default 8 s, slightly above a warm start).
	Warmup time.Duration
}

func (c PowerStrategyConfig) withDefaults() PowerStrategyConfig {
	if c.Threshold <= 0 {
		c.Threshold = 50
	}
	if c.MinSpeed <= 0 {
		c.MinSpeed = 0.3
	}
	if c.Warmup <= 0 {
		c.Warmup = 8 * time.Second
	}
	return c
}

// NewPowerStrategy returns the feature.
func NewPowerStrategy(cfg PowerStrategyConfig) *PowerStrategy {
	cfg = cfg.withDefaults()
	return &PowerStrategy{
		threshold: cfg.Threshold,
		minSpeed:  cfg.MinSpeed,
		warmup:    cfg.Warmup,
	}
}

// FeatureName implements core.Feature.
func (s *PowerStrategy) FeatureName() string { return FeaturePowerStrategy }

// Bind implements core.BindableFeature: grab the device control
// surface, the motion sensor when present, and register for epoch
// ticks.
func (s *PowerStrategy) Bind(host core.FeatureHost) {
	if ctrl, ok := host.Component().(PowerControllable); ok {
		s.ctrl = ctrl
	}
	if m, ok := host.Component().(MotionSource); ok {
		s.motion = m
	}
	if ts, ok := host.Component().(TickSource); ok {
		ts.AddTick(s.tick)
	}
}

// NotifyFix implements StrategyControl: record motion state and power
// the GPS down until the uncertainty bound approaches the threshold.
func (s *PowerStrategy) NotifyFix(speedMS, accuracy float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.haveFix = true
	s.lastFixAt = s.elapsed
	s.movingTime = 0
	s.estSpeed = speedMS
	if s.estSpeed < s.minSpeed {
		s.estSpeed = s.minSpeed
	}
	s.accuracy = accuracy
	if s.ctrl != nil {
		s.ctrl.PowerOff()
	}
}

// SetThreshold implements StrategyControl.
func (s *PowerStrategy) SetThreshold(m float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m > 0 {
		s.threshold = m
	}
}

// Threshold implements StrategyControl.
func (s *PowerStrategy) Threshold() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.threshold
}

// tick is the per-epoch device callback: wake the GPS when the motion
// model says the target could be approaching the threshold by the time
// reacquisition completes. With a motion sensor, only epochs in which
// the target actually moved grow the uncertainty bound — a resting
// target costs no wake-ups and accrues no error, which is where
// EnTracked's savings come from [3]. Without one, every epoch counts.
func (s *PowerStrategy) tick(mode gps.Mode, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.elapsed += d
	if s.motion == nil || s.motion.Moving() {
		s.movingTime += d
	}
	if s.ctrl == nil || mode != gps.ModeOff {
		return
	}
	speed := s.estSpeed
	if !s.haveFix {
		speed = maxSpeed
	}
	moving := s.movingTime.Seconds()
	if s.haveFix && s.motion != nil && speed < 1 {
		// The accelerometer says how long the target moved, not how
		// fast; once moving, budget at least walking pace.
		speed = 1
	}
	bound := s.accuracy + speed*(moving+s.warmup.Seconds())
	if bound >= s.threshold {
		s.ctrl.PowerOn()
	}
}

// PeriodicStrategy is the baseline reporting policy: wake the GPS every
// period, deliver one fix, power down. It implements the same
// StrategyControl surface so experiments can swap strategies.
type PeriodicStrategy struct {
	mu      sync.Mutex
	ctrl    PowerControllable
	period  time.Duration
	warmup  time.Duration
	elapsed time.Duration
	nextOn  time.Duration
}

var (
	_ core.BindableFeature = (*PeriodicStrategy)(nil)
	_ StrategyControl      = (*PeriodicStrategy)(nil)
)

// NewPeriodicStrategy returns a strategy polling one fix every period.
func NewPeriodicStrategy(period, warmup time.Duration) *PeriodicStrategy {
	if warmup <= 0 {
		warmup = 8 * time.Second
	}
	return &PeriodicStrategy{period: period, warmup: warmup}
}

// FeatureName implements core.Feature.
func (s *PeriodicStrategy) FeatureName() string { return FeaturePeriodic }

// Bind implements core.BindableFeature.
func (s *PeriodicStrategy) Bind(host core.FeatureHost) {
	if ctrl, ok := host.Component().(PowerControllable); ok {
		s.ctrl = ctrl
	}
	if ts, ok := host.Component().(TickSource); ok {
		ts.AddTick(s.tick)
	}
}

// NotifyFix implements StrategyControl: fix obtained, sleep until the
// next poll.
func (s *PeriodicStrategy) NotifyFix(float64, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextOn = s.elapsed + s.period - s.warmup
	if s.ctrl != nil {
		s.ctrl.PowerOff()
	}
}

// SetThreshold implements StrategyControl; periods are fixed, so this
// is a no-op.
func (s *PeriodicStrategy) SetThreshold(float64) {}

// Threshold implements StrategyControl.
func (s *PeriodicStrategy) Threshold() float64 { return 0 }

func (s *PeriodicStrategy) tick(mode gps.Mode, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.elapsed += d
	if s.ctrl == nil || mode != gps.ModeOff {
		return
	}
	if s.elapsed >= s.nextOn {
		s.ctrl.PowerOn()
	}
}

// EnTrackedFeature is the server-side Channel Feature of Fig. 7: it
// monitors the output of the Interpreter component (each channel
// delivery), accounts the radio report, and calls the Power Strategy
// feature's methods. It declares its dependency on the Power Strategy
// Component Feature being present in the channel, and is wired to it
// via Connect (looked up through the channel, as the paper's dynamic
// composition would).
type EnTrackedFeature struct {
	mu         sync.Mutex
	strategy   StrategyControl
	accountant *Accountant

	reports []positioning.Position
}

var _ channel.RequiringFeature = (*EnTrackedFeature)(nil)

// NewEnTrackedFeature returns the feature; accountant may be nil.
func NewEnTrackedFeature(accountant *Accountant) *EnTrackedFeature {
	return &EnTrackedFeature{accountant: accountant}
}

// FeatureName implements channel.Feature.
func (f *EnTrackedFeature) FeatureName() string { return FeatureEnTracked }

// Requires implements channel.RequiringFeature.
func (f *EnTrackedFeature) Requires() channel.Requirements {
	return channel.Requirements{
		ComponentFeatures: []string{FeaturePowerStrategy},
		Components:        []string{"Interpreter"},
	}
}

// Connect wires the strategy control the feature drives. Look it up on
// the channel: ch.Feature(energy.FeaturePowerStrategy).
func (f *EnTrackedFeature) Connect(strategy StrategyControl) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.strategy = strategy
}

// Apply implements channel.Feature: per delivered position, report and
// drive the strategy.
func (f *EnTrackedFeature) Apply(tree *channel.DataTree) {
	pos, ok := tree.Root.Sample.Payload.(positioning.Position)
	if !ok {
		return
	}
	speed, _ := tree.Root.Sample.FloatAttr("speedMS")

	f.mu.Lock()
	f.reports = append(f.reports, pos)
	strategy := f.strategy
	acct := f.accountant
	f.mu.Unlock()

	if acct != nil {
		acct.Report()
	}
	if strategy != nil {
		strategy.NotifyFix(speed, pos.Accuracy)
	}
}

// Reports returns the positions delivered to the server so far.
func (f *EnTrackedFeature) Reports() []positioning.Position {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]positioning.Position, len(f.reports))
	copy(out, f.reports)
	return out
}

// ReporterFeature is the baseline counterpart of EnTrackedFeature: it
// reports every channel delivery (always-on policy) and optionally
// notifies a strategy (periodic polling), without EnTracked's declared
// requirements.
type ReporterFeature struct {
	mu         sync.Mutex
	strategy   StrategyControl
	accountant *Accountant
	reports    []positioning.Position
}

var _ channel.Feature = (*ReporterFeature)(nil)

// NewReporterFeature returns the feature; strategy and accountant may
// each be nil.
func NewReporterFeature(accountant *Accountant, strategy StrategyControl) *ReporterFeature {
	return &ReporterFeature{accountant: accountant, strategy: strategy}
}

// FeatureName implements channel.Feature.
func (f *ReporterFeature) FeatureName() string { return "reporter" }

// Apply implements channel.Feature.
func (f *ReporterFeature) Apply(tree *channel.DataTree) {
	pos, ok := tree.Root.Sample.Payload.(positioning.Position)
	if !ok {
		return
	}
	speed, _ := tree.Root.Sample.FloatAttr("speedMS")

	f.mu.Lock()
	f.reports = append(f.reports, pos)
	strategy := f.strategy
	acct := f.accountant
	f.mu.Unlock()

	if acct != nil {
		acct.Report()
	}
	if strategy != nil {
		strategy.NotifyFix(speed, pos.Accuracy)
	}
}

// Reports returns the positions delivered so far.
func (f *ReporterFeature) Reports() []positioning.Position {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]positioning.Position, len(f.reports))
	copy(out, f.reports)
	return out
}
