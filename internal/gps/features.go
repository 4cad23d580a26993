package gps

import (
	"strconv"
	"strings"

	"perpos/internal/core"
	"perpos/internal/nmea"
)

// Feature and attribute names used by the GPS Component Features.
const (
	// FeatureHDOP is the name of the HDOP Component Feature (§3.2).
	FeatureHDOP = "gps.hdop"
	// FeatureSatellites is the name of the NumberOfSatellites Component
	// Feature (§3.1).
	FeatureSatellites = "gps.satellites"
	// AttrHDOP is the sample attribute carrying the HDOP of the
	// measurement a sample was derived from.
	AttrHDOP = "hdop"
	// AttrSatellites is the sample attribute carrying the satellite
	// count.
	AttrSatellites = "satellites"
)

// HDOPProvider is the functional interface of the HDOP feature: the
// Fig. 5 component.getFeature(HDOP.class).getHDOP() lookup.
type HDOPProvider interface {
	// HDOP returns the most recent horizontal dilution of precision and
	// whether one has been observed.
	HDOP() (float64, bool)
}

// HDOPFeature is the Component Feature of §3.2: attached to the Parser,
// it extracts the HDOP from each GGA measurement flowing out, exposes
// it as component state (HDOPProvider), attaches it as a sample
// attribute, and re-emits it as feature data through the host's output
// port (the parser.produce(nmeaSentence.HDOP) of Fig. 5, label 3) for
// consumers that declare interest.
type HDOPFeature struct {
	host core.FeatureHost
	last float64
	seen bool
}

var (
	_ core.ProduceHook     = (*HDOPFeature)(nil)
	_ core.BindableFeature = (*HDOPFeature)(nil)
	_ HDOPProvider         = (*HDOPFeature)(nil)
)

// NewHDOPFeature returns an HDOP feature ready to attach to a Parser.
func NewHDOPFeature() *HDOPFeature { return &HDOPFeature{} }

// FeatureName implements core.Feature.
func (f *HDOPFeature) FeatureName() string { return FeatureHDOP }

// Bind implements core.BindableFeature.
func (f *HDOPFeature) Bind(host core.FeatureHost) { f.host = host }

// Produce implements core.ProduceHook.
func (f *HDOPFeature) Produce(out core.Sample) (core.Sample, bool) {
	g, ok := hdopOf(out)
	if !ok {
		return out, true
	}
	f.last = g
	f.seen = true
	out = out.WithAttr(AttrHDOP, g)
	if f.host != nil {
		f.host.EmitFeatureData(core.NewSample("gps.hdop.value", g, out.Time))
	}
	return out, true
}

// HDOP implements HDOPProvider.
func (f *HDOPFeature) HDOP() (float64, bool) { return f.last, f.seen }

// SatelliteProvider is the functional interface of the
// NumberOfSatellites feature.
type SatelliteProvider interface {
	// Satellites returns the most recent satellite count and whether one
	// has been observed.
	Satellites() (int, bool)
}

// SatellitesFeature is the NumberOfSatellites Component Feature of
// §3.1: attached to the Parser, it "adds a new data element to its
// output" — the satellite count — which the inserted filter component
// downstream uses to drop unreliable measurements.
type SatellitesFeature struct {
	last int
	seen bool
}

var (
	_ core.ProduceHook  = (*SatellitesFeature)(nil)
	_ SatelliteProvider = (*SatellitesFeature)(nil)
)

// NewSatellitesFeature returns a NumberOfSatellites feature.
func NewSatellitesFeature() *SatellitesFeature { return &SatellitesFeature{} }

// FeatureName implements core.Feature.
func (f *SatellitesFeature) FeatureName() string { return FeatureSatellites }

// Produce implements core.ProduceHook.
func (f *SatellitesFeature) Produce(out core.Sample) (core.Sample, bool) {
	n, ok := satellitesOf(out)
	if !ok {
		return out, true
	}
	f.last = n
	f.seen = true
	return out.WithAttr(AttrSatellites, n), true
}

// Satellites implements SatelliteProvider.
func (f *SatellitesFeature) Satellites() (int, bool) { return f.last, f.seen }

// NewSatelliteFilter returns the §3.1 filter component: inserted after
// the Parser, it forwards only measurements whose satellite count (as
// attached by the NumberOfSatellites feature) is at least minSats.
// Sentences without a satellite count (e.g. RMC) pass through — the
// reliability decision is only meaningful for fix measurements.
func NewSatelliteFilter(id string, minSats int) *core.FuncComponent {
	return &core.FuncComponent{
		CompID: id,
		CompSpec: core.Spec{
			Name: "SatelliteFilter",
			Inputs: []core.PortSpec{{
				Name:             "nmea",
				Accepts:          []core.Kind{KindSentence},
				RequiresFeatures: []string{FeatureSatellites},
			}},
			Output: core.OutputSpec{Kind: KindSentence},
		},
		Fn: func(_ int, in core.Sample, emit core.Emit) error {
			if n, ok := in.IntAttr(AttrSatellites); ok && n < minSats {
				return nil
			}
			emit(in)
			return nil
		},
	}
}

// NewHDOPFilter returns the §3.2 accuracy filter component: inserted
// after the Parser, it forwards only measurements whose HDOP (as
// attached by the HDOP feature) is at most maxHDOP. Sentences without
// an HDOP attribute (e.g. RMC) pass through — the accuracy decision is
// only meaningful for fix measurements. The rules engine inserts and
// removes this component as HDOP degrades and recovers.
func NewHDOPFilter(id string, maxHDOP float64) *core.FuncComponent {
	return &core.FuncComponent{
		CompID: id,
		CompSpec: core.Spec{
			Name: "HDOPFilter",
			Inputs: []core.PortSpec{{
				Name:             "nmea",
				Accepts:          []core.Kind{KindSentence},
				RequiresFeatures: []string{FeatureHDOP},
			}},
			Output: core.OutputSpec{Kind: KindSentence},
		},
		Fn: func(_ int, in core.Sample, emit core.Emit) error {
			if h, ok := in.FloatAttr(AttrHDOP); ok && h > maxHDOP {
				return nil
			}
			emit(in)
			return nil
		},
	}
}

// RewriteHDOP returns a copy of a raw NMEA GGA or GSA sentence with
// its HDOP field replaced and the checksum recomputed. Both carry HDOP
// on the wire, and the parser-side HDOP feature reads it from either —
// rewriting only one type would leave the clean value flickering back
// through the other. Sentences of other types (and malformed ones) are
// returned unchanged. It exists for chaos scenarios: wrap a receiver
// with chaos.WithCorrupt and rewrite the HDOP of every fix sentence
// flowing out to simulate accuracy degradation that the real parser
// and HDOP feature then observe.
func RewriteHDOP(raw string, hdop float64) string {
	payload := strings.TrimPrefix(strings.TrimRight(raw, "\r\n"), "$")
	if i := strings.IndexByte(payload, '*'); i >= 0 {
		payload = payload[:i]
	}
	comma := strings.IndexByte(payload, ',')
	if comma < 0 {
		return raw
	}
	// HDOP's field index per sentence type: GGA field 8, GSA field 16
	// (after the twelve PRN slots and PDOP).
	var idx int
	switch {
	case strings.HasSuffix(payload[:comma], "GGA"):
		idx = 8
	case strings.HasSuffix(payload[:comma], "GSA"):
		idx = 16
	default:
		return raw
	}
	fields := strings.Split(payload, ",")
	if len(fields) <= idx {
		return raw
	}
	fields[idx] = strconv.FormatFloat(hdop, 'f', 1, 64)
	return nmea.Frame(strings.Join(fields, ","))
}

// hdopOf extracts HDOP from a parsed-sentence sample. Both GGA and GSA
// sentences carry it.
func hdopOf(s core.Sample) (float64, bool) {
	switch v := s.Payload.(type) {
	case nmea.GGA:
		if v.Quality == nmea.FixInvalid {
			return 0, false
		}
		return v.HDOP, true
	case nmea.GSA:
		if v.FixMode < 2 {
			return 0, false
		}
		return v.HDOP, true
	default:
		return 0, false
	}
}

// satellitesOf extracts the satellite count from a parsed-sentence
// sample.
func satellitesOf(s core.Sample) (int, bool) {
	switch v := s.Payload.(type) {
	case nmea.GGA:
		return v.NumSatellites, true
	case nmea.GSA:
		return len(v.PRNs), true
	default:
		return 0, false
	}
}

// FeatureParserStats is the name of the parser statistics feature.
const FeatureParserStats = "gps.parser-stats"

// ParserStats is the functional interface of the parser statistics
// feature — the "changing component state" augmentation of §2.1 in its
// read-only form: internal component state exposed without modifying
// the Parser.
type ParserStats interface {
	// Parsed returns the number of successfully parsed sentences.
	Parsed() int
	// Dropped returns the number of malformed sentences discarded.
	Dropped() int
	// DropRate returns dropped/(parsed+dropped), 0 when idle.
	DropRate() float64
}

// StatsFeature exposes the host Parser's internal counters. Attach it
// to a Parser node; callers retrieve it with Node.Feature and assert to
// ParserStats.
type StatsFeature struct {
	parser *Parser
}

var (
	_ core.BindableFeature = (*StatsFeature)(nil)
	_ ParserStats          = (*StatsFeature)(nil)
)

// NewStatsFeature returns the feature.
func NewStatsFeature() *StatsFeature { return &StatsFeature{} }

// FeatureName implements core.Feature.
func (f *StatsFeature) FeatureName() string { return FeatureParserStats }

// Bind implements core.BindableFeature.
func (f *StatsFeature) Bind(host core.FeatureHost) {
	if p, ok := host.Component().(*Parser); ok {
		f.parser = p
	}
}

// Parsed implements ParserStats.
func (f *StatsFeature) Parsed() int {
	if f.parser == nil {
		return 0
	}
	parsed, _ := f.parser.Stats()
	return parsed
}

// Dropped implements ParserStats.
func (f *StatsFeature) Dropped() int {
	if f.parser == nil {
		return 0
	}
	_, dropped := f.parser.Stats()
	return dropped
}

// DropRate implements ParserStats.
func (f *StatsFeature) DropRate() float64 {
	total := f.Parsed() + f.Dropped()
	if total == 0 {
		return 0
	}
	return float64(f.Dropped()) / float64(total)
}
