package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"perpos/internal/core"
	"perpos/internal/gps"
)

// downlinkGraph builds a minimal graph holding one raw-NMEA downlink.
func downlinkGraph(t *testing.T) (*core.Graph, *Downlink) {
	t.Helper()
	g := core.New()
	dl := NewDownlink("downlink", core.OutputSpec{Kind: gps.KindRaw})
	if _, err := g.Add(dl); err != nil {
		t.Fatal(err)
	}
	return g, dl
}

// TestOldFrameRejected is the cross-version regression gate: a v1 peer
// (bare 4-byte big-endian length prefix, no magic) must be rejected
// with ErrBadMagic before any body bytes are parsed — the old format's
// first two bytes are the length's high bytes, which are zero for any
// legal body, never the magic.
func TestOldFrameRejected(t *testing.T) {
	body := []byte(`{"kind":"gps.raw","payload":"$GPGGA"}`)
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)

	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("v1 frame error = %v, want ErrBadMagic", err)
	}
}

// TestReadFrameBoundsHostileLength: a header declaring MaxFrame but
// followed by only 16 body bytes must fail as a short body, having
// allocated about readChunk per read rather than the declared length.
func TestReadFrameBoundsHostileLength(t *testing.T) {
	hostile := []byte{magic0, magic1, ProtocolVersion, byte(FrameSample), 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hostile[4:], MaxFrame)
	hostile = append(hostile, make([]byte, 16)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if _, _, err := ReadFrame(bytes.NewReader(hostile)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("short body error = %v, want io.ErrUnexpectedEOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1280<<10 {
		t.Errorf("10 hostile reads allocated %d bytes, want under 1.25 MiB", got)
	}
}

// TestReadFrameGrowsPastChunk reads bodies on both sides of readChunk:
// each round-trips intact, one cut short fails as a short body, and a
// body up to readChunk is one allocation of exactly its length.
func TestReadFrameGrowsPastChunk(t *testing.T) {
	for _, size := range []int{0, 1, readChunk, readChunk + 1, 5*readChunk + 3, MaxFrame} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, FrameSample, body); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		_, got, err := ReadFrame(bytes.NewReader(raw))
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("size %d: round trip = %d bytes, %v", size, len(got), err)
		}
		if size <= readChunk && cap(got) != size {
			t.Errorf("size %d: body capacity %d, want exactly its length", size, cap(got))
		}
		if size == 0 {
			continue
		}
		if _, _, err := ReadFrame(bytes.NewReader(raw[:len(raw)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("size %d cut by one byte: error = %v, want io.ErrUnexpectedEOF", size, err)
		}
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameControl, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[2] = ProtocolVersion + 1 // a future build's frames

	_, _, err := ReadFrame(bytes.NewReader(raw))
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("error = %v, want *VersionError", err)
	}
	if ve.Got != ProtocolVersion+1 || ve.Want != ProtocolVersion {
		t.Errorf("VersionError = got %d want %d; expected got %d want %d",
			ve.Got, ve.Want, ProtocolVersion+1, ProtocolVersion)
	}
}

// TestServerRejectsOldPeer drives the rejection end-to-end: an
// old-format uplink connecting to a current Server is dropped and the
// incompatibility is recorded in Errs, not silently swallowed.
func TestServerRejectsOldPeer(t *testing.T) {
	g, dl := downlinkGraph(t)
	srv, err := Serve("127.0.0.1:0", g, dl, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 7)
	conn.Write(hdr[:])
	conn.Write([]byte("oldbody"))

	deadline := time.Now().Add(3 * time.Second)
	for len(srv.Errs()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	found := false
	for _, err := range srv.Errs() {
		if errors.Is(err, ErrBadMagic) {
			found = true
		}
	}
	if !found {
		t.Fatalf("server errors = %v, want ErrBadMagic recorded", srv.Errs())
	}
	if dl.Received() != 0 {
		t.Errorf("received = %d, want 0 — old frames must not be parsed", dl.Received())
	}
}

// TestServerIgnoresControlFrames: a control frame on a sample link is
// noted and skipped; the connection keeps serving samples.
func TestServerIgnoresControlFrames(t *testing.T) {
	g, dl := downlinkGraph(t)
	srv, err := Serve("127.0.0.1:0", g, dl, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, FrameControl, []byte(`{"op":"probe"}`)); err != nil {
		t.Fatal(err)
	}
	body, err := encodeSample(core.NewSample("gps.raw", "$x", time.Time{}), DefaultCodecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, FrameSample, body); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for dl.Received() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if dl.Received() != 1 {
		t.Fatalf("received = %d, want 1 — sample after control frame must land", dl.Received())
	}
	if len(srv.Errs()) == 0 {
		t.Error("control frame on sample link produced no recorded error")
	}
}
