// Package remote distributes a PerPos processing graph across hosts,
// standing in for the D-OSGi remote services the paper relied on
// ("because OSGi supports transparent distribution of services through
// the D-OSGi specification the processing graph can span several hosts
// with little added configuration overhead", §3.3).
//
// An Uplink component forwards every sample arriving at its input port
// over TCP; a Downlink on the peer re-emits received samples into the
// remote graph as if produced locally. Samples travel as versioned,
// length-prefixed JSON frames; payload decoding is per-kind, via
// Codecs. The same framing carries cluster control messages
// (internal/cluster): a frame-type byte distinguishes sample traffic
// from control RPCs, and a magic + protocol version byte in every
// header turns cross-version or misdialed connections into typed
// errors instead of silent corruption.
package remote

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"perpos/internal/core"
	"perpos/internal/positioning"
)

// MaxFrame is the largest accepted wire frame in bytes.
const MaxFrame = 1 << 20

// readChunk bounds how far ReadFrame allocates ahead of the body bytes
// that have arrived: a length prefix is the peer's claim, so a hostile
// one must not cost a MaxFrame allocation before any body byte does.
const readChunk = 64 << 10

// ProtocolVersion is the wire protocol revision this build speaks.
// Bump it when the frame body schema changes incompatibly; peers
// reject mismatched versions with a *VersionError rather than
// misparsing each other's frames.
const ProtocolVersion = 2

// Frame magic: two bytes opening every frame header. The v1 format
// (bare 4-byte big-endian length prefix) begins with 0x00 0x00 for any
// body under 16 MiB, so v1 frames can never satisfy the magic check —
// old peers are rejected deterministically, not parsed as garbage.
const (
	magic0 = 0x50 // 'P'
	magic1 = 0x70 // 'p'
)

// FrameType tags what a frame body contains.
type FrameType byte

const (
	// FrameSample carries a wireSample JSON body (Uplink → Downlink).
	FrameSample FrameType = 0x01
	// FrameControl carries a cluster control-RPC JSON body
	// (internal/cluster request/response envelopes).
	FrameControl FrameType = 0x02
)

// headerSize is the fixed frame header length:
// magic(2) | version(1) | type(1) | bodyLen(4, big-endian).
const headerSize = 8

// Errors returned by the wire layer.
var (
	// ErrFrameTooLarge indicates an oversized frame.
	ErrFrameTooLarge = errors.New("remote: frame exceeds MaxFrame")
	// ErrNoCodec indicates a sample kind without a registered codec.
	ErrNoCodec = errors.New("remote: no codec for kind")
	// ErrBadMagic indicates a frame that does not start with the
	// protocol magic — a pre-versioning peer or a misdialed port.
	ErrBadMagic = errors.New("remote: bad frame magic (old-format or foreign peer)")
)

// VersionError reports a peer speaking a different protocol revision.
type VersionError struct {
	Got  byte
	Want byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("remote: protocol version mismatch: peer speaks v%d, this build speaks v%d", e.Got, e.Want)
}

// Codec converts one kind's payload to and from JSON.
type Codec struct {
	// Encode marshals an in-memory payload. A nil Encode uses
	// json.Marshal.
	Encode func(payload any) (json.RawMessage, error)
	// Decode unmarshals a received payload.
	Decode func(raw json.RawMessage) (any, error)
}

// Codecs maps sample kinds to codecs.
type Codecs map[core.Kind]Codec

// StringCodec handles string payloads (raw NMEA lines).
func StringCodec() Codec {
	return Codec{
		Decode: func(raw json.RawMessage) (any, error) {
			var s string
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, err
			}
			return s, nil
		},
	}
}

// PositionCodec handles positioning.Position payloads.
func PositionCodec() Codec {
	return Codec{
		Decode: func(raw json.RawMessage) (any, error) {
			var p positioning.Position
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, err
			}
			return p, nil
		},
	}
}

// DefaultCodecs covers the kinds that cross host boundaries in the
// shipped pipelines.
func DefaultCodecs() Codecs {
	return Codecs{
		"gps.raw":                StringCodec(),
		positioning.KindPosition: PositionCodec(),
		positioning.KindRoom:     StringCodec(),
	}
}

// wireSample is the JSON frame body.
type wireSample struct {
	Kind        core.Kind        `json:"kind"`
	Time        time.Time        `json:"time"`
	Source      string           `json:"source,omitempty"`
	Logical     core.LogicalTime `json:"logical,omitempty"`
	Spans       []core.Span      `json:"spans,omitempty"`
	FromFeature string           `json:"fromFeature,omitempty"`
	Attrs       map[string]any   `json:"attrs,omitempty"`
	Payload     json.RawMessage  `json:"payload"`
}

// encodeSample converts a sample to its frame body.
func encodeSample(s core.Sample, codecs Codecs) ([]byte, error) {
	c, ok := codecs[s.Kind]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoCodec, s.Kind)
	}
	var payload json.RawMessage
	var err error
	if c.Encode != nil {
		payload, err = c.Encode(s.Payload)
	} else {
		payload, err = json.Marshal(s.Payload)
	}
	if err != nil {
		return nil, fmt.Errorf("encode %q payload: %w", s.Kind, err)
	}
	body, err := json.Marshal(wireSample{
		Kind:        s.Kind,
		Time:        s.Time,
		Source:      s.Source,
		Logical:     s.Logical,
		Spans:       s.Spans,
		FromFeature: s.FromFeature,
		Attrs:       s.Attrs,
		Payload:     payload,
	})
	if err != nil {
		return nil, fmt.Errorf("encode %q frame: %w", s.Kind, err)
	}
	return body, nil
}

// decodeSample parses a frame body.
func decodeSample(body []byte, codecs Codecs) (core.Sample, error) {
	var w wireSample
	if err := json.Unmarshal(body, &w); err != nil {
		return core.Sample{}, fmt.Errorf("decode frame: %w", err)
	}
	c, ok := codecs[w.Kind]
	if !ok || c.Decode == nil {
		return core.Sample{}, fmt.Errorf("%w: %q", ErrNoCodec, w.Kind)
	}
	payload, err := c.Decode(w.Payload)
	if err != nil {
		return core.Sample{}, fmt.Errorf("decode %q payload: %w", w.Kind, err)
	}
	return core.Sample{
		Kind:        w.Kind,
		Time:        w.Time,
		Source:      w.Source,
		Logical:     w.Logical,
		Spans:       w.Spans,
		FromFeature: w.FromFeature,
		Attrs:       w.Attrs,
		Payload:     payload,
	}, nil
}

// WriteFrame writes one framed message: an 8-byte header
// (magic, version, frame type, big-endian body length) followed by the
// body. The header and body go out in a single Write so a frame is
// never torn across a slow-peer stall boundary.
func WriteFrame(w io.Writer, ftype FrameType, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(body))
	}
	buf := make([]byte, headerSize+len(body))
	buf[0] = magic0
	buf[1] = magic1
	buf[2] = ProtocolVersion
	buf[3] = byte(ftype)
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(body)))
	copy(buf[headerSize:], body)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one framed message, validating magic and protocol
// version. It returns ErrBadMagic for pre-versioning (v1) or foreign
// frames and a *VersionError when the peer speaks a different protocol
// revision — both before any body bytes are consumed, so the caller
// can fail the connection without misparsing.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err // io.EOF propagates unwrapped for clean shutdown
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, nil, ErrBadMagic
	}
	if hdr[2] != ProtocolVersion {
		return 0, nil, &VersionError{Got: hdr[2], Want: ProtocolVersion}
	}
	n := int(binary.BigEndian.Uint32(hdr[4:8]))
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	// Frames up to readChunk take one allocation of their length; a
	// longer body grows by at most what has already arrived.
	body := make([]byte, min(n, readChunk))
	for got := 0; ; {
		k, err := io.ReadFull(r, body[got:])
		got += k
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised a body
			}
			return 0, nil, fmt.Errorf("read frame body: %w", err)
		}
		if got == n {
			return FrameType(hdr[3]), body, nil
		}
		body = append(body, make([]byte, min(n-got, got))...)
	}
}
