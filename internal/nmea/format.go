package nmea

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Formatting is on the saturated hot path (the simulated receiver
// renders every epoch's sentence group), so sentences are assembled
// with strconv.Append* into a caller-supplied byte buffer instead of
// fmt: the final string is the only allocation per sentence.

// Appender is satisfied by sentence values that can render their framed
// wire form into a caller-supplied buffer. It is meant as a type
// constraint, not a boxing surface: a generic emitter over Appender
// keeps value sentences on the stack.
type Appender interface {
	AppendFormat(dst []byte) []byte
}

// Frame wraps a payload (without '$' or checksum) into a complete
// sentence with checksum and CRLF, ready to be emitted by a receiver.
func Frame(payload string) string {
	var b strings.Builder
	b.Grow(len(payload) + 7)
	b.WriteByte('$')
	b.WriteString(payload)
	writeChecksum(&b, Checksum(payload))
	return b.String()
}

// writeChecksum appends "*HH\r\n" for the given checksum byte.
func writeChecksum(b *strings.Builder, sum byte) {
	const hexDigits = "0123456789ABCDEF"
	b.WriteByte('*')
	b.WriteByte(hexDigits[sum>>4])
	b.WriteByte(hexDigits[sum&0xF])
	b.WriteString("\r\n")
}

// closeFrame checksums the payload appended since start (which must
// point at the '$' opening the frame) and appends "*HH\r\n".
func closeFrame(dst []byte, start int) []byte {
	const hexDigits = "0123456789ABCDEF"
	var sum byte
	for _, c := range dst[start+1:] {
		sum ^= c
	}
	return append(dst, '*', hexDigits[sum>>4], hexDigits[sum&0xF], '\r', '\n')
}

// Format renders a sentence back into its framed wire form. It supports
// the same sentence types as Parse; Parse(Format(s)) round-trips the
// fields up to the wire precision (1e-4 minutes, i.e. ~0.2 m).
//
// Hot-path producers that hold a concrete sentence value should call
// its Format or AppendFormat method directly — passing through the
// Sentence interface boxes the value on the heap per call.
func Format(s Sentence) (string, error) {
	switch v := s.(type) {
	case GGA:
		return v.Format(), nil
	case RMC:
		return v.Format(), nil
	case GSA:
		return v.Format(), nil
	case GSV:
		return v.Format(), nil
	default:
		return "", fmt.Errorf("%w: %T", ErrUnknownType, s)
	}
}

// Format renders the sentence in framed wire form.
func (g GGA) Format() string { return string(g.AppendFormat(make([]byte, 0, 96))) }

// Format renders the sentence in framed wire form.
func (r RMC) Format() string { return string(r.AppendFormat(make([]byte, 0, 96))) }

// Format renders the sentence in framed wire form.
func (g GSA) Format() string { return string(g.AppendFormat(make([]byte, 0, 96))) }

// Format renders the sentence in framed wire form.
func (g GSV) Format() string { return string(g.AppendFormat(make([]byte, 0, 112))) }

// appendIntPad appends v zero-padded to the given width.
func appendIntPad(p []byte, v, width int) []byte {
	if v < 0 {
		v = 0
	}
	digits := 1
	for n := v; n >= 10; n /= 10 {
		digits++
	}
	for i := digits; i < width; i++ {
		p = append(p, '0')
	}
	return strconv.AppendInt(p, int64(v), 10)
}

// appendFixed appends v with one decimal place ("%.1f"). Wire fields
// using it are quantised to one decimal anyway, so the value is scaled
// to tenths and rendered with integer appends — strconv's general
// float-to-decimal path (rightShift/decimal.Assign) dominated the
// saturated-bench CPU profile before this. Magnitudes whose tenths
// overflow an int64 (Parse accepts long digit runs) take that general
// path instead.
func appendFixed(p []byte, v float64) []byte {
	if math.Abs(v) >= 1e17 {
		return strconv.AppendFloat(p, v, 'f', 1, 64)
	}
	if v < 0 {
		scaled := int64(-v*10 + 0.5)
		if scaled != 0 {
			p = append(p, '-')
		}
		return appendScaled(p, scaled, 1)
	}
	return appendScaled(p, int64(v*10+0.5), 1)
}

// appendScaled appends scaled/10^dec with exactly dec decimal digits.
func appendScaled(p []byte, scaled int64, dec int) []byte {
	pow := int64(1)
	for i := 0; i < dec; i++ {
		pow *= 10
	}
	p = strconv.AppendInt(p, scaled/pow, 10)
	p = append(p, '.')
	frac := scaled % pow
	for pow /= 10; pow > 1; pow /= 10 {
		if frac < pow {
			p = append(p, '0')
		}
	}
	return strconv.AppendInt(p, frac, 10)
}

// AppendFormat appends the complete framed wire form ("$GPGGA,...*HH\r\n")
// to dst and returns the extended buffer.
func (g GGA) AppendFormat(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, "$GPGGA,"...)
	dst = appendUTC(dst, g.Time)
	dst = append(dst, ',')
	dst = appendLatLon(dst, g.Lat, true)
	dst = append(dst, ',')
	dst = appendLatLon(dst, g.Lon, false)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(g.Quality), 10)
	dst = append(dst, ',')
	dst = appendIntPad(dst, g.NumSatellites, 2)
	dst = append(dst, ',')
	dst = appendFixed(dst, g.HDOP)
	dst = append(dst, ',')
	dst = appendFixed(dst, g.Altitude)
	dst = append(dst, ",M,0.0,M,,"...)
	return closeFrame(dst, start)
}

// AppendFormat appends the complete framed wire form to dst.
func (r RMC) AppendFormat(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, "$GPRMC,"...)
	dst = appendUTC(dst, r.Time)
	if r.Valid {
		dst = append(dst, ",A,"...)
	} else {
		dst = append(dst, ",V,"...)
	}
	dst = appendLatLon(dst, r.Lat, true)
	dst = append(dst, ',')
	dst = appendLatLon(dst, r.Lon, false)
	dst = append(dst, ',')
	dst = appendFixed(dst, r.SpeedKn)
	dst = append(dst, ',')
	dst = appendFixed(dst, r.CourseT)
	dst = append(dst, ',')
	if !r.Time.IsZero() {
		// ddmmyy
		dst = appendIntPad(dst, r.Time.Day(), 2)
		dst = appendIntPad(dst, int(r.Time.Month()), 2)
		dst = appendIntPad(dst, r.Time.Year()%100, 2)
	}
	dst = append(dst, ",,"...)
	return closeFrame(dst, start)
}

// AppendFormat appends the complete framed wire form to dst.
func (g GSA) AppendFormat(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, "$GPGSA,"...)
	if g.Auto {
		dst = append(dst, 'A')
	} else {
		dst = append(dst, 'M')
	}
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(g.FixMode), 10)
	for i := 0; i < 12; i++ {
		dst = append(dst, ',')
		if i < len(g.PRNs) {
			dst = appendIntPad(dst, g.PRNs[i], 2)
		}
	}
	dst = append(dst, ',')
	dst = appendFixed(dst, g.PDOP)
	dst = append(dst, ',')
	dst = appendFixed(dst, g.HDOP)
	dst = append(dst, ',')
	dst = appendFixed(dst, g.VDOP)
	return closeFrame(dst, start)
}

// AppendFormat appends the complete framed wire form to dst.
func (g GSV) AppendFormat(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, "$GPGSV,"...)
	dst = strconv.AppendInt(dst, int64(g.TotalMsgs), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(g.MsgNum), 10)
	dst = append(dst, ',')
	dst = appendIntPad(dst, g.TotalInView, 2)
	for _, sv := range g.Satellites {
		dst = append(dst, ',')
		dst = appendIntPad(dst, sv.PRN, 2)
		dst = append(dst, ',')
		dst = appendIntPad(dst, sv.Elevation, 2)
		dst = append(dst, ',')
		dst = appendIntPad(dst, sv.Azimuth, 3)
		dst = append(dst, ',')
		if sv.SNR > 0 {
			dst = appendIntPad(dst, sv.SNR, 2)
		}
	}
	return closeFrame(dst, start)
}

// appendUTC appends hhmmss.ss. Zero times append an empty field.
func appendUTC(p []byte, t time.Time) []byte {
	if t.IsZero() {
		return p
	}
	p = appendIntPad(p, t.Hour(), 2)
	p = appendIntPad(p, t.Minute(), 2)
	p = appendIntPad(p, t.Second(), 2)
	p = append(p, '.')
	return appendIntPad(p, t.Nanosecond()/1e7, 2)
}

// appendLatLon appends signed decimal degrees as "ddmm.mmmm,H".
func appendLatLon(p []byte, dd float64, isLat bool) []byte {
	hemi := byte('N')
	if isLat {
		if dd < 0 {
			hemi = 'S'
		}
	} else {
		hemi = 'E'
		if dd < 0 {
			hemi = 'W'
		}
	}
	dd = math.Abs(dd)
	deg := math.Floor(dd)
	// Minutes carry four decimals on the wire, so they are rendered in
	// integer ten-thousandths; rounding up to 60.0000 carries into the
	// degrees instead.
	scaled := int64((dd-deg)*60*10000 + 0.5)
	if scaled >= 600000 {
		scaled = 0
		deg++
	}
	degWidth := 2
	if !isLat {
		degWidth = 3
	}
	p = appendIntPad(p, int(deg), degWidth)
	// %07.4f: minutes zero-padded to two integer digits.
	if scaled < 100000 {
		p = append(p, '0')
	}
	p = appendScaled(p, scaled, 4)
	p = append(p, ',', hemi)
	return p
}
