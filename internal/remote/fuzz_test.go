package remote

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// frame is WriteFrame into a byte slice.
func frame(t testing.TB, ftype FrameType, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, ftype, body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeFrame feeds arbitrary bytes to ReadFrame, and any body it
// returns to decodeSample. Nothing may panic; every rejection is an io
// error, ErrBadMagic, a *VersionError or ErrFrameTooLarge; no body
// exceeds MaxFrame; an accepted frame re-encodes to the bytes it was
// read from; and any input written by WriteFrame reads back unchanged.
// The seed corpus (testdata/fuzz/FuzzDecodeFrame) holds sample and
// control frames, truncations, v1 and older-version headers and a
// hostile length prefix.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ftype, body, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			var ve *VersionError
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, ErrBadMagic) && !errors.As(err, &ve) && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("ReadFrame rejected with an unexpected error: %v", err)
			}
		} else {
			if len(body) > MaxFrame {
				t.Fatalf("body of %d bytes exceeds MaxFrame", len(body))
			}
			if got := frame(t, ftype, body); !bytes.Equal(got, data[:len(got)]) {
				t.Fatalf("accepted frame re-encodes to %x, read from %x", got, data[:len(got)])
			}
			_, _ = decodeSample(body, DefaultCodecs()) // must not panic
		}

		if len(data) > MaxFrame {
			return
		}
		ftype, body, err = ReadFrame(bytes.NewReader(frame(t, FrameSample, data)))
		if err != nil || ftype != FrameSample || !bytes.Equal(body, data) {
			t.Fatalf("WriteFrame round trip = (%v, %x, %v), want (%v, %x, nil)", ftype, body, err, FrameSample, data)
		}
	})
}
