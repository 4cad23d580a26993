// Package nmea implements the subset of the NMEA 0183 protocol produced
// by consumer GPS receivers and consumed by the PerPos GPS Parser
// component: sentence framing with checksum validation, and the GGA, RMC,
// GSA and GSV sentence types.
//
// The paper's GPS channel (Fig. 4) carries raw receiver strings that a
// Parser component turns into NMEA measurements; the HDOP and
// number-of-satellites Component Features of §3.1–3.2 read their values
// from these sentences.
package nmea

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Errors reported by the parser. They are matched with errors.Is by the
// Parser component's bad-sentence accounting.
var (
	ErrFraming     = errors.New("nmea: bad sentence framing")
	ErrChecksum    = errors.New("nmea: checksum mismatch")
	ErrUnknownType = errors.New("nmea: unknown sentence type")
	ErrFieldCount  = errors.New("nmea: wrong field count")
	ErrBadField    = errors.New("nmea: malformed field")
)

// FixQuality is the GGA fix-quality indicator.
type FixQuality int

// Fix quality values defined by NMEA 0183.
const (
	FixInvalid FixQuality = 0
	FixGPS     FixQuality = 1
	FixDGPS    FixQuality = 2
)

// String returns the conventional name of the fix quality.
func (q FixQuality) String() string {
	switch q {
	case FixInvalid:
		return "invalid"
	case FixGPS:
		return "gps"
	case FixDGPS:
		return "dgps"
	default:
		return fmt.Sprintf("quality(%d)", int(q))
	}
}

// Sentence is implemented by all parsed NMEA sentence types.
type Sentence interface {
	// Type returns the three-letter sentence type, e.g. "GGA".
	Type() string
}

// GGA is a Global Positioning System Fix Data sentence: time, position
// and fix-related data. It is the primary sentence for positioning and
// carries the HDOP and satellite count used by the §3.1–3.2 features.
type GGA struct {
	Time          time.Time // UTC time of fix (date-less; zero date)
	Lat, Lon      float64   // decimal degrees; sign encodes hemisphere
	Quality       FixQuality
	NumSatellites int
	HDOP          float64
	Altitude      float64 // metres above mean sea level
}

// Type implements Sentence.
func (GGA) Type() string { return "GGA" }

// RMC is a Recommended Minimum sentence: position, speed over ground and
// course over ground. EnTracked's motion model reads speed from RMC.
type RMC struct {
	Time     time.Time // UTC time of fix including date
	Valid    bool      // status A=valid, V=void
	Lat, Lon float64
	SpeedKn  float64 // speed over ground, knots
	CourseT  float64 // course over ground, degrees true
}

// Type implements Sentence.
func (RMC) Type() string { return "RMC" }

// SpeedMS returns the RMC ground speed in metres per second.
func (r RMC) SpeedMS() float64 { return r.SpeedKn * 0.514444 }

// GSA is a DOP and active-satellites sentence.
type GSA struct {
	Auto    bool  // A=automatic 2D/3D selection, M=manual
	FixMode int   // 1=no fix, 2=2D, 3=3D
	PRNs    []int // IDs of satellites used in the fix
	PDOP    float64
	HDOP    float64
	VDOP    float64
}

// Type implements Sentence.
func (GSA) Type() string { return "GSA" }

// SatelliteInView describes one satellite in a GSV sentence.
type SatelliteInView struct {
	PRN       int
	Elevation int // degrees, 0-90
	Azimuth   int // degrees, 0-359
	SNR       int // dB, 0 when not tracking
}

// GSV is a satellites-in-view sentence. A full view is reported as a
// numbered group of GSV sentences.
type GSV struct {
	TotalMsgs   int
	MsgNum      int
	TotalInView int
	Satellites  []SatelliteInView // up to 4 per sentence
}

// Type implements Sentence.
func (GSV) Type() string { return "GSV" }

// Checksum returns the NMEA checksum (XOR of bytes) of the payload
// between '$' and '*'.
func Checksum(payload string) byte {
	var sum byte
	for i := 0; i < len(payload); i++ {
		sum ^= payload[i]
	}
	return sum
}

// maxFields is the widest supported sentence: GSV with four satellite
// blocks (4 header + 4×4 fields).
const maxFields = 20

// splitFields splits the payload on commas into dst without allocating
// a fresh slice per sentence (this runs once per sentence on the
// saturated hot path). Returns the field count, or -1 when the payload
// has more fields than any supported sentence.
func splitFields(payload string, dst *[maxFields]string) int {
	n := 0
	for {
		if n == maxFields {
			return -1
		}
		i := strings.IndexByte(payload, ',')
		if i < 0 {
			dst[n] = payload
			return n + 1
		}
		dst[n] = payload[:i]
		n++
		payload = payload[i+1:]
	}
}

// Parse parses a single framed NMEA sentence ("$GPxxx,...*hh" with
// optional trailing CR/LF) into a typed Sentence value.
func Parse(raw string) (Sentence, error) {
	payload, err := unframe(raw)
	if err != nil {
		return nil, err
	}
	var fieldBuf [maxFields]string
	nf := splitFields(payload, &fieldBuf)
	if nf < 0 {
		return nil, fmt.Errorf("%w: too many fields in %q", ErrFieldCount, payload)
	}
	fields := fieldBuf[:nf]
	talkerType := fields[0]
	if len(talkerType) != 5 {
		return nil, fmt.Errorf("%w: bad talker/type %q", ErrFraming, talkerType)
	}
	switch talkerType[2:] {
	case "GGA":
		return parseGGA(fields)
	case "RMC":
		return parseRMC(fields)
	case "GSA":
		return parseGSA(fields)
	case "GSV":
		return parseGSV(fields)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, talkerType[2:])
	}
}

// unframe strips '$', optional "\r\n", validates and removes the "*hh"
// checksum, and returns the comma-separated payload.
func unframe(raw string) (string, error) {
	s := strings.TrimRight(raw, "\r\n")
	if len(s) < 9 || s[0] != '$' {
		return "", fmt.Errorf("%w: %q", ErrFraming, raw)
	}
	star := strings.LastIndexByte(s, '*')
	if star < 0 || star != len(s)-3 {
		return "", fmt.Errorf("%w: missing checksum in %q", ErrFraming, raw)
	}
	payload := s[1:star]
	want, err := strconv.ParseUint(s[star+1:], 16, 8)
	if err != nil {
		return "", fmt.Errorf("%w: unreadable checksum in %q", ErrFraming, raw)
	}
	if got := Checksum(payload); got != byte(want) {
		return "", fmt.Errorf("%w: got %02X want %02X", ErrChecksum, got, byte(want))
	}
	return payload, nil
}

func parseGGA(f []string) (Sentence, error) {
	// $GPGGA,hhmmss.ss,llll.ll,a,yyyyy.yy,a,x,xx,x.x,x.x,M,x.x,M,,*hh
	if len(f) != 15 {
		return nil, fmt.Errorf("%w: GGA has %d fields, want 15", ErrFieldCount, len(f))
	}
	var g GGA
	var err error
	if g.Time, err = parseUTC(f[1], ""); err != nil {
		return nil, err
	}
	if g.Lat, err = parseLatLon(f[2], f[3], true); err != nil {
		return nil, err
	}
	if g.Lon, err = parseLatLon(f[4], f[5], false); err != nil {
		return nil, err
	}
	q, err := parseInt(f[6], "fix quality")
	if err != nil {
		return nil, err
	}
	g.Quality = FixQuality(q)
	if g.NumSatellites, err = parseInt(f[7], "satellite count"); err != nil {
		return nil, err
	}
	if g.HDOP, err = parseFloat(f[8], "hdop"); err != nil {
		return nil, err
	}
	if g.Altitude, err = parseFloat(f[9], "altitude"); err != nil {
		return nil, err
	}
	return g, nil
}

func parseRMC(f []string) (Sentence, error) {
	// $GPRMC,hhmmss.ss,A,llll.ll,a,yyyyy.yy,a,x.x,x.x,ddmmyy,x.x,a*hh
	// Some receivers add a 13th mode field; accept 12 or 13.
	if len(f) != 12 && len(f) != 13 {
		return nil, fmt.Errorf("%w: RMC has %d fields, want 12 or 13", ErrFieldCount, len(f))
	}
	var r RMC
	var err error
	if r.Time, err = parseUTC(f[1], f[9]); err != nil {
		return nil, err
	}
	switch f[2] {
	case "A":
		r.Valid = true
	case "V", "":
		r.Valid = false
	default:
		return nil, fmt.Errorf("%w: RMC status %q", ErrBadField, f[2])
	}
	if r.Lat, err = parseLatLon(f[3], f[4], true); err != nil {
		return nil, err
	}
	if r.Lon, err = parseLatLon(f[5], f[6], false); err != nil {
		return nil, err
	}
	if r.SpeedKn, err = parseFloat(f[7], "speed"); err != nil {
		return nil, err
	}
	if r.CourseT, err = parseFloat(f[8], "course"); err != nil {
		return nil, err
	}
	return r, nil
}

func parseGSA(f []string) (Sentence, error) {
	// $GPGSA,A,3,prn*12,pdop,hdop,vdop*hh -> 18 fields
	if len(f) != 18 {
		return nil, fmt.Errorf("%w: GSA has %d fields, want 18", ErrFieldCount, len(f))
	}
	var g GSA
	switch f[1] {
	case "A":
		g.Auto = true
	case "M":
		g.Auto = false
	default:
		return nil, fmt.Errorf("%w: GSA mode %q", ErrBadField, f[1])
	}
	var err error
	if g.FixMode, err = parseInt(f[2], "fix mode"); err != nil {
		return nil, err
	}
	for i := 3; i < 15; i++ {
		if f[i] == "" {
			continue
		}
		prn, err := parseInt(f[i], "prn")
		if err != nil {
			return nil, err
		}
		if g.PRNs == nil {
			g.PRNs = make([]int, 0, 12)
		}
		g.PRNs = append(g.PRNs, prn)
	}
	if g.PDOP, err = parseFloat(f[15], "pdop"); err != nil {
		return nil, err
	}
	if g.HDOP, err = parseFloat(f[16], "hdop"); err != nil {
		return nil, err
	}
	if g.VDOP, err = parseFloat(f[17], "vdop"); err != nil {
		return nil, err
	}
	return g, nil
}

func parseGSV(f []string) (Sentence, error) {
	// $GPGSV,total,num,inview,(prn,elev,az,snr)x1..4*hh
	if len(f) < 4 || (len(f)-4)%4 != 0 {
		return nil, fmt.Errorf("%w: GSV has %d fields", ErrFieldCount, len(f))
	}
	var g GSV
	var err error
	if g.TotalMsgs, err = parseInt(f[1], "total msgs"); err != nil {
		return nil, err
	}
	if g.MsgNum, err = parseInt(f[2], "msg num"); err != nil {
		return nil, err
	}
	if g.TotalInView, err = parseInt(f[3], "in view"); err != nil {
		return nil, err
	}
	g.Satellites = make([]SatelliteInView, 0, (len(f)-4)/4)
	for i := 4; i+4 <= len(f); i += 4 {
		var sv SatelliteInView
		if sv.PRN, err = parseInt(f[i], "prn"); err != nil {
			return nil, err
		}
		if sv.Elevation, err = parseInt(f[i+1], "elevation"); err != nil {
			return nil, err
		}
		if sv.Azimuth, err = parseInt(f[i+2], "azimuth"); err != nil {
			return nil, err
		}
		if f[i+3] != "" {
			if sv.SNR, err = parseInt(f[i+3], "snr"); err != nil {
				return nil, err
			}
		}
		g.Satellites = append(g.Satellites, sv)
	}
	return g, nil
}

// parseUTC parses hhmmss(.sss) plus an optional ddmmyy date field.
func parseUTC(hms, date string) (time.Time, error) {
	if hms == "" {
		return time.Time{}, nil
	}
	if len(hms) < 6 {
		return time.Time{}, fmt.Errorf("%w: time %q", ErrBadField, hms)
	}
	h, err1 := strconv.Atoi(hms[0:2])
	m, err2 := strconv.Atoi(hms[2:4])
	secf, ok := parseDecimal(hms[4:])
	var err3 error
	if !ok {
		secf, err3 = strconv.ParseFloat(hms[4:], 64)
	}
	// The negated range test also rejects a NaN seconds field.
	if err1 != nil || err2 != nil || err3 != nil || h < 0 || h > 23 || m < 0 || m > 59 || !(secf >= 0 && secf < 61) {
		return time.Time{}, fmt.Errorf("%w: time %q", ErrBadField, hms)
	}
	sec := int(secf)
	nsec := int((secf - float64(sec)) * 1e9)

	year, month, day := 0, time.January, 1
	if date != "" {
		if len(date) != 6 {
			return time.Time{}, fmt.Errorf("%w: date %q", ErrBadField, date)
		}
		d, err1 := strconv.Atoi(date[0:2])
		mo, err2 := strconv.Atoi(date[2:4])
		y, err3 := strconv.Atoi(date[4:6])
		if err1 != nil || err2 != nil || err3 != nil || mo < 1 || mo > 12 || d < 1 || d > 31 {
			return time.Time{}, fmt.Errorf("%w: date %q", ErrBadField, date)
		}
		year, month, day = 2000+y, time.Month(mo), d
	}
	return time.Date(year, month, day, h, m, sec, nsec, time.UTC), nil
}

// parseLatLon parses ddmm.mmmm (lat) or dddmm.mmmm (lon) with a
// hemisphere letter into signed decimal degrees. Empty fields parse to 0.
func parseLatLon(v, hemi string, isLat bool) (float64, error) {
	if v == "" {
		return 0, nil
	}
	degDigits := 2
	if !isLat {
		degDigits = 3
	}
	if len(v) < degDigits+2 {
		return 0, fmt.Errorf("%w: coordinate %q", ErrBadField, v)
	}
	deg, err := strconv.Atoi(v[:degDigits])
	if err != nil || deg < 0 {
		return 0, fmt.Errorf("%w: coordinate %q", ErrBadField, v)
	}
	minutes, ok := parseDecimal(v[degDigits:])
	if !ok {
		var err error
		minutes, err = strconv.ParseFloat(v[degDigits:], 64)
		if err != nil {
			return 0, fmt.Errorf("%w: coordinate minutes %q", ErrBadField, v)
		}
	}
	// Signed or NaN minutes (strconv accepts both) are no coordinate.
	if !(minutes >= 0 && minutes < 60) {
		return 0, fmt.Errorf("%w: coordinate minutes %q", ErrBadField, v)
	}
	dd := float64(deg) + minutes/60
	switch hemi {
	case "N", "E", "":
		return dd, nil
	case "S", "W":
		return -dd, nil
	default:
		return 0, fmt.Errorf("%w: hemisphere %q", ErrBadField, hemi)
	}
}

// parseDecimal parses a plain unsigned decimal ("x", "x.y") directly;
// ok=false sends the caller to strconv.ParseFloat for anything fancier
// (signs, exponents, overlong digit runs). Wire fields are short fixed
// forms, so this covers the hot path without strconv's general
// float-decoding machinery.
func parseDecimal(v string) (float64, bool) {
	n := len(v)
	if n == 0 || n > 18 {
		return 0, false
	}
	var ip uint64
	i := 0
	for ; i < n; i++ {
		c := v[i]
		if c == '.' {
			break
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		ip = ip*10 + uint64(c-'0')
	}
	if i == n {
		return float64(ip), true
	}
	i++ // skip '.'
	if i == n {
		return 0, false
	}
	var frac uint64
	scale := 1.0
	for ; i < n; i++ {
		c := v[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		frac = frac*10 + uint64(c-'0')
		scale *= 10
	}
	return float64(ip) + float64(frac)/scale, true
}

func parseInt(v, what string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%w: %s %q", ErrBadField, what, v)
	}
	return n, nil
}

func parseFloat(v, what string) (float64, error) {
	if v == "" {
		return 0, nil
	}
	s := v
	neg := false
	if s[0] == '-' {
		neg = true
		s = s[1:]
	}
	if f, ok := parseDecimal(s); ok {
		if neg {
			f = -f
		}
		return f, nil
	}
	// strconv also accepts "NaN" and "Inf", which no NMEA field carries.
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("%w: %s %q", ErrBadField, what, v)
	}
	return f, nil
}
