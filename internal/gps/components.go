package gps

import (
	"errors"

	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/nmea"
	"perpos/internal/positioning"
)

// Parser is the Processing Component that turns raw receiver strings
// into NMEA measurements (Fig. 1). Malformed sentences are counted and
// dropped, not propagated as errors — a receiver burps garbage
// routinely.
type Parser struct {
	id string

	parsed  int
	dropped int
}

var _ core.Component = (*Parser)(nil)

// NewParser returns a Parser component.
func NewParser(id string) *Parser { return &Parser{id: id} }

// ID implements core.Component.
func (p *Parser) ID() string { return p.id }

// Spec implements core.Component.
func (p *Parser) Spec() core.Spec {
	return core.Spec{
		Name:   "Parser",
		Inputs: []core.PortSpec{{Name: "raw", Accepts: []core.Kind{KindRaw}}},
		Output: core.OutputSpec{Kind: KindSentence},
	}
}

// Process implements core.Component.
func (p *Parser) Process(_ int, in core.Sample, emit core.Emit) error {
	raw, ok := in.Payload.(string)
	if !ok {
		p.dropped++
		return nil
	}
	s, err := nmea.Parse(raw)
	if err != nil {
		if errors.Is(err, nmea.ErrUnknownType) {
			// Unknown-but-well-formed sentences are normal; ignore.
			return nil
		}
		p.dropped++
		return nil
	}
	p.parsed++
	emit(core.NewSample(KindSentence, s, in.Time))
	return nil
}

// Stats returns (parsed, dropped) sentence counts — exposed for
// state-access Component Features.
func (p *Parser) Stats() (parsed, dropped int) { return p.parsed, p.dropped }

// Interpreter is the Processing Component producing WGS84 positions
// from NMEA measurements (Fig. 1). It only emits when a sentence
// contains a valid fix — which is why several NMEA sentences may group
// under one position in the Fig. 4 data tree.
type Interpreter struct {
	id   string
	uere float64

	lastSpeedMS float64
	emitted     int
	// attrCache holds shared attrs snapshots keyed by speed, for
	// positions whose input carries no attrs of its own. Wire speeds are
	// quantised to 0.1 kn so a session sees few distinct values; attr
	// maps are copy-on-write by convention (Sample.WithAttr), so sharing
	// one map across emissions is safe and avoids a map allocation plus
	// a float box per position.
	attrCache [16]struct {
		speed float64
		attrs map[string]any
	}
	attrNext int
}

var _ core.Component = (*Interpreter)(nil)

// NewInterpreter returns an Interpreter. uere scales HDOP into an
// accuracy estimate; pass 0 for the default (3 m).
func NewInterpreter(id string, uere float64) *Interpreter {
	if uere <= 0 {
		uere = 3
	}
	return &Interpreter{id: id, uere: uere}
}

// ID implements core.Component.
func (i *Interpreter) ID() string { return i.id }

// Spec implements core.Component.
func (i *Interpreter) Spec() core.Spec {
	return core.Spec{
		Name:   "Interpreter",
		Inputs: []core.PortSpec{{Name: "nmea", Accepts: []core.Kind{KindSentence}}},
		Output: core.OutputSpec{Kind: positioning.KindPosition},
	}
}

// Process implements core.Component.
func (i *Interpreter) Process(_ int, in core.Sample, emit core.Emit) error {
	switch s := in.Payload.(type) {
	case nmea.GGA:
		if s.Quality == nmea.FixInvalid {
			return nil
		}
		pos := positioning.Position{
			Time:     in.Time,
			Global:   geo.Point{Lat: s.Lat, Lon: s.Lon, Alt: s.Altitude},
			Accuracy: s.HDOP * i.uere,
			Source:   "gps",
		}
		i.emitted++
		out := core.NewSample(positioning.KindPosition, pos, in.Time)
		// Carry the measurement's feature-attached detail (HDOP,
		// satellite count) forward: consumers asked for it by attaching
		// the features upstream.
		if in.Attrs == nil {
			out.Attrs = i.speedAttrs()
		} else {
			out.Attrs = in.Attrs
			out = out.WithAttr("speedMS", i.lastSpeedMS)
		}
		emit(out)
	case nmea.RMC:
		if s.Valid {
			i.lastSpeedMS = s.SpeedMS()
		}
	}
	return nil
}

// speedAttrs returns a shared {"speedMS": lastSpeedMS} snapshot,
// reusing a previously built map for a repeated speed value.
func (i *Interpreter) speedAttrs() map[string]any {
	for idx := range i.attrCache {
		if e := &i.attrCache[idx]; e.attrs != nil && e.speed == i.lastSpeedMS {
			return e.attrs
		}
	}
	m := map[string]any{"speedMS": i.lastSpeedMS}
	i.attrCache[i.attrNext] = struct {
		speed float64
		attrs map[string]any
	}{i.lastSpeedMS, m}
	i.attrNext = (i.attrNext + 1) % len(i.attrCache)
	return m
}
