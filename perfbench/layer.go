package main

import (
	"runtime/metrics"
	"time"

	"perpos/internal/channel"
	"perpos/internal/core"
	"perpos/internal/gps"
	"perpos/internal/health"
	"perpos/internal/nmea"
	"perpos/internal/obs"
	"perpos/internal/positioning"
)

// layerMetrics is every per-layer metric a traced run prints, in
// BENCHMARK.json order. A metric of a layer a workload does not run
// (the WiFi chain on the GPS workloads, checkpoints outside
// fleet-churn, ...) reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"loadgen.late_ms_p99", "ms"},
	{"runtime.step_us_p50", "us"},
	{"runtime.step_us_p99", "us"},
	{"runtime.create_ms_p50", "ms"},
	{"runtime.evict_ms_p50", "ms"},
	{"runtime.resume_ms_p50", "ms"},
	{"runtime.start_ms_p50", "ms"},
	{"runtime.allocs_per_position", "count"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.positions_per_session_s", "1/s"},
	{"core.emissions_per_position", "count"},
	{"core.hop_us.gps", "us"},
	{"core.hop_us.parser", "us"},
	{"core.hop_us.interpreter", "us"},
	{"core.hop_us.wifi", "us"},
	{"core.hop_us.wifi-positioning", "us"},
	{"core.hop_us.particle-filter", "us"},
	{"core.hop_us.app", "us"},
	{"gps.receiver_us", "us"},
	{"gps.parser_us", "us"},
	{"gps.interpreter_us", "us"},
	{"nmea.parse_ns", "ns"},
	{"wifi.sensor_us", "us"},
	{"wifi.engine_us", "us"},
	{"filter.particle_us", "us"},
	{"channel.tap_ns", "ns"},
	{"channel.trees_per_position", "count"},
	{"channel.tree_nodes_per_delivery", "count"},
	{"obs.tap_ns", "ns"},
	{"health.tap_ns", "ns"},
	{"health.sweeps_per_s", "1/s"},
	{"health.sweep_us", "us"},
	{"rules.tap_ns", "ns"},
	{"rules.sweep_us", "us"},
	{"rules.edits", "1/s"},
	{"positioning.deliver_ns", "ns"},
	{"checkpoint.append_us_p50", "us"},
	{"checkpoint.bytes_per_record", "B"},
	{"checkpoint.load_ms_p50", "ms"},
	{"trace.overhead_share", "share"},
}

// layerSet is a traced run's per-layer metrics, every one present.
type layerSet map[string]metric

func newLayerSet() layerSet {
	ls := make(layerSet, len(layerMetrics))
	for _, m := range layerMetrics {
		ls[m.name] = metric{Value: 0, Unit: m.unit}
	}
	return ls
}

// set records a value for a metric of the catalogue.
func (ls layerSet) set(name string, v float64) {
	m, ok := ls[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	m.Value = v
	ls[name] = m
}

// setHops records the traced phase's core metrics: emissions per
// delivered position and the median hop of every listed node.
func (ls layerSet) setHops(t *tracer, nodes ...string) {
	emissions, positions, hops := t.totals()
	ls.set("core.emissions_per_position", float64(emissions)/float64(max(positions, 1)))
	for _, n := range nodes {
		if h := hops[n]; len(h) > 0 {
			ls.set("core.hop_us."+n, percentile(h, 0.5))
		}
	}
	if len(t.stepUs) > 0 {
		ls.set("runtime.step_us_p50", percentile(t.stepUs, 0.5))
		ls.set("runtime.step_us_p99", percentile(t.stepUs, 0.99))
	}
}

// rtCounters are the Go runtime counters the allocation and GC metrics
// are taken from.
type rtCounters struct {
	allocs uint64
	gcCPU  float64
	cpu    time.Duration
}

func readRuntime() rtCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c rtCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[1].Value.Float64()
	}
	c.cpu = cpuTime()
	return c
}

// setRuntime records allocations per delivered position and the GC's
// share of the process CPU time between two counter readings.
func (ls layerSet) setRuntime(before, after rtCounters, positions int64) {
	ls.set("runtime.allocs_per_position", float64(after.allocs-before.allocs)/float64(max(positions, 1)))
	if cpu := (after.cpu - before.cpu).Seconds(); cpu > 0 {
		ls.set("runtime.gc_cpu_share", (after.gcCPU-before.gcCPU)/cpu)
	}
}

// replayReps is how many times each replay runs; the median of the
// per-call means is reported.
const replayReps = 5

// perCall times fn over n calls, replayReps times with prep run before
// each repetition, and returns the median over repetitions of the mean
// time per call.
func perCall(n int, prep func(), fn func(i int)) time.Duration {
	if n == 0 {
		return 0
	}
	means := make([]float64, replayReps)
	for r := range means {
		if prep != nil {
			prep()
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		means[r] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(means))
}

func noEmit(core.Sample) {}

// input is one captured emission replayed into a component port.
type input struct {
	port int
	s    core.Sample
}

// inputsOf returns the captured emissions of the given upstream nodes,
// each mapped to the input port it feeds in the blueprint's wiring.
func inputsOf(events []core.TapEvent, ports map[string]int) []input {
	var in []input
	for _, ev := range events {
		if p, ok := ports[ev.ComponentID]; ok {
			in = append(in, input{port: p, s: ev.Sample})
		}
	}
	return in
}

// processReplay times a fresh component's Process over the inputs.
func processReplay(newComp func() core.Component, in []input) time.Duration {
	var c core.Component
	return perCall(len(in), func() { c = newComp() }, func(i int) {
		_ = c.Process(in[i].port, in[i].s, noEmit)
	})
}

// stepReplay times n Steps of a fresh source.
func stepReplay(newSrc func() core.Producer, n int) time.Duration {
	var p core.Producer
	return perCall(n, func() { p = newSrc() }, func(int) { _, _ = p.Step(noEmit) })
}

// tapReplay times a fresh tap over the captured events.
func tapReplay(newTap func() core.TapFunc, events []core.TapEvent) time.Duration {
	var fn core.TapFunc
	return perCall(len(events), func() { fn = newTap() }, func(i int) {
		fn(events[i].ComponentID, events[i].Sample)
	})
}

// setLayerReplay replays the captured stream through a channel layer
// built with the session's layer options (history bound and the
// metrics hub's tree observer) on a fresh instance of the blueprint,
// and records the PCL metrics.
func (ls layerSet) setLayerReplay(newGraph func() (*core.Graph, error), history int, st *sessTrace) error {
	var l *channel.Layer
	var trees, nodes int
	counting := false
	hub := obs.New()
	observer := channel.WithTreeObserver(func(_ *channel.Channel, t *channel.DataTree) {
		hub.ObserveTreeDepth(t.Depth())
		if counting {
			trees++
			nodes += t.Size()
		}
	})
	var gerr error
	prep := func() {
		if l != nil {
			l.Close()
		}
		g, err := newGraph()
		if err != nil {
			gerr = err
			g = core.New()
		}
		l = channel.NewLayer(g, channel.WithHistory(history), observer)
	}
	tap := func(i int) { l.Tap(st.events[i].ComponentID, st.events[i].Sample) }
	d := perCall(len(st.events), prep, tap)
	if gerr != nil {
		return gerr
	}
	prep()
	counting = true
	for i := range st.events {
		tap(i)
	}
	l.Close()
	ls.set("channel.tap_ns", float64(d))
	ls.set("channel.trees_per_position", float64(trees)/float64(max(len(st.delivered), 1)))
	ls.set("channel.tree_nodes_per_delivery", float64(nodes)/float64(max(trees, 1)))
	return nil
}

// replicaGraph instantiates fresh graphs of the blueprint with the
// given sensor overrides and a provider sink, for the channel layer
// replay.
func replicaGraph(bp *core.Blueprint, sensors ...core.InstantiateOption) func() (*core.Graph, error) {
	return func() (*core.Graph, error) {
		return bp.Instantiate(append(sensors, core.WithComponentOverride("app", func(id string) core.Component {
			return positioning.NewProviderSink(id, positioning.NewProvider(id, positioning.ProviderInfo{}, nil))
		}))...)
	}
}

// setDeliverReplay times Provider.Deliver of the captured positions to
// a fresh provider carrying the workload's subscriber.
func (ls layerSet) setDeliverReplay(sub func(positioning.Position), st *sessTrace) {
	var p *positioning.Provider
	d := perCall(len(st.delivered), func() {
		p = positioning.NewProvider("replay", positioning.ProviderInfo{}, nil)
		p.Subscribe(sub)
	}, func(i int) { p.Deliver(st.delivered[i]) })
	ls.set("positioning.deliver_ns", float64(d))
}

// overheadShare is how much worse tracing made a headline metric:
// positive when the traced phase read worse than the untraced one.
func overheadShare(untraced, traced float64, higherIsBetter bool) float64 {
	if untraced == 0 {
		return 0
	}
	if higherIsBetter {
		return (untraced - traced) / untraced
	}
	return (traced - untraced) / untraced
}

// setGPSChainReplay times the GPS chain's components on the captured
// stream: receiver Steps, Parser and Interpreter Process calls on the
// inputs the blueprint's wiring feeds them, and nmea.Parse on the raw
// sentences.
func (ls layerSet) setGPSChainReplay(newReceiver func() core.Producer, ev []core.TapEvent) {
	ls.set("gps.receiver_us", float64(stepReplay(newReceiver, 2000))/1e3)
	raws := inputsOf(ev, map[string]int{"gps": 0})
	ls.set("gps.parser_us", float64(processReplay(func() core.Component { return gps.NewParser("parser") }, raws))/1e3)
	ls.set("gps.interpreter_us", float64(processReplay(func() core.Component { return gps.NewInterpreter("interpreter", 0) },
		inputsOf(ev, map[string]int{"parser": 0})))/1e3)
	ls.set("nmea.parse_ns", float64(perCall(len(raws), nil, func(i int) {
		if s, ok := raws[i].s.Payload.(string); ok {
			_, _ = nmea.Parse(s)
		}
	})))
}

// setTapReplays times the metrics hub's graph observer (wrapping a
// monitor, as sessions wire it) and the health monitor's tap on the
// captured stream.
func (ls layerSet) setTapReplays(pol health.Policy, ev []core.TapEvent) {
	ls.set("obs.tap_ns", float64(tapReplay(func() core.TapFunc {
		return obs.NewGraphObserver(obs.New(), health.NewMonitor(pol)).Tap
	}, ev)))
	ls.set("health.tap_ns", float64(tapReplay(func() core.TapFunc { return health.NewMonitor(pol).Tap }, ev)))
}
