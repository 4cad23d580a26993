package checkpoint

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// writeFrame appends one frame holding payload to w, framed as the
// store frames its records.
func writeFrame(w io.Writer, payload []byte) error {
	frame := append(make([]byte, frameHeaderLen), payload...)
	sealFrame(frame)
	_, err := w.Write(frame)
	return err
}

// FuzzJournalRecover commits three frames with writeFrame — two
// arbitrary payloads around a decodable record — then appends an
// arbitrary tail, the shape a crash leaves behind. scanFrames must
// return the committed payloads, byte-equal, as a prefix of its result;
// the committed bytes cut at any offset must scan to a prefix of the
// committed payloads; and scanSegment must not panic and must find a
// record. The seed corpus (testdata/fuzz/FuzzJournalRecover) holds
// clean logs, torn headers, bad CRCs and hostile lengths in the tail.
func FuzzJournalRecover(f *testing.F) {
	record, err := json.Marshal(SessionState{SessionID: "target", Seq: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, a, b, tail []byte, cut uint32) {
		committed := [][]byte{a, record, b}
		var buf bytes.Buffer
		for _, p := range committed {
			if err := writeFrame(&buf, p); err != nil {
				t.Fatal(err)
			}
		}
		log := buf.Bytes()

		got := scanFrames(append(append([]byte(nil), log...), tail...))
		if !isPrefix(committed, got) {
			t.Fatalf("scan of committed frames + tail = %q, want %q as its prefix", got, committed)
		}
		cutLog := log[:int(cut%uint32(len(log)+1))]
		if got := scanFrames(cutLog); !isPrefix(got, committed) {
			t.Fatalf("scan cut at %d = %q, want a prefix of %q", len(cutLog), got, committed)
		}
		if !scanSegment(append(log, tail...)).ok {
			t.Fatal("scanSegment found no record in a log with a committed one")
		}
	})
}

// isPrefix reports whether p is a prefix of s, payload by payload.
func isPrefix(p, s [][]byte) bool {
	if len(p) > len(s) {
		return false
	}
	for i := range p {
		if !bytes.Equal(p[i], s[i]) {
			return false
		}
	}
	return true
}
