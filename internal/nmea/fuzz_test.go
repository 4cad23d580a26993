package nmea

import (
	"errors"
	"testing"
)

// parseErrors are the sentinels every Parse rejection must wrap: callers
// (the GPS Parser's bad-sentence accounting) classify failures with
// errors.Is and nothing else.
var parseErrors = []error{ErrFraming, ErrChecksum, ErrUnknownType, ErrFieldCount, ErrBadField}

// FuzzParse drives Parse with hostile input. Each input is tried twice:
// as given, and wrapped by Frame so that a valid checksum lets it past
// the framing gate into the field parsers. The contract:
//   - Parse never panics;
//   - every rejection wraps one of the parser's sentinel errors;
//   - every accepted sentence survives Format → Parse with the same
//     Type().
//
// The checked-in corpus under testdata/fuzz/FuzzParse extends the seeds
// below and is replayed by every plain `go test` run.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		ggaSentence,
		rmcSentence,
		"GPGSA,A,3,04,05,,09,12,,,24,,,,,2.5,1.3,2.1",
		"GPGSV,2,1,08,01,40,083,46,02,17,308,41,12,07,344,39,14,22,228,45",
		"GPGSV,1,1,02,21,10,120,,22,05,210,",
		"GPGGA,,,,,,0,00,,,M,,M,,",
		"GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W,A",
		"GPZDA,123519,23,03,1994,00,00",
		"",
		"$",
		"$GPGGA*00\r\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, raw := range []string{input, Frame(input)} {
			s, err := Parse(raw)
			if err != nil {
				if !wrapsParseError(err) {
					t.Fatalf("Parse(%q) error %v wraps no parser sentinel", raw, err)
				}
				continue
			}
			out, err := Format(s)
			if err != nil {
				t.Fatalf("Format(%#v) of accepted %q: %v", s, raw, err)
			}
			back, err := Parse(out)
			if err != nil {
				t.Fatalf("Parse(Format(Parse(%q))) = %q: %v", raw, out, err)
			}
			if back.Type() != s.Type() {
				t.Fatalf("round trip of %q changed type %s -> %s", raw, s.Type(), back.Type())
			}
		}
	})
}

func wrapsParseError(err error) bool {
	for _, sentinel := range parseErrors {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}
