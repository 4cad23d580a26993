package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

const (
	journalExt = ".journal"
	snapExt    = ".snap"

	// frameHeaderLen is magic(2) + length(4) + crc(4).
	frameHeaderLen = 10
	// maxFrameLen bounds a single record; larger lengths in a header are
	// treated as corruption rather than attempted allocations.
	maxFrameLen = 64 << 20
)

// frameMagic marks the start of a frame; a mismatch means the scan ran
// into garbage and recovery stops at the previous good frame.
var frameMagic = [2]byte{0xC5, 0x9E}

// journal is the per-session durable state: two append-only frame
// segments, <id>.journal and <id>.snap, of which one is active and
// open. Every snapshotEvery appends the journal switches: it opens the
// other segment emptied, closes the active one and appends there from
// then on. All operations serialize on mu.
type journal struct {
	mu    sync.Mutex
	paths [2]string // the segments: <id>.journal, <id>.snap
	fsync bool

	f       *os.File // the active segment; nil until the first append recovers
	active  int      // index of the active segment in paths
	appends int      // frames in the active segment
	nextSeq uint64
}

// frameBuf builds one frame: the header's room, then the JSON payload,
// so that a record goes out in one write.
type frameBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

// frameBufs lends frame buffers to appends, so that a record's frame
// is built without allocating.
var frameBufs = sync.Pool{New: func() any {
	b := new(frameBuf)
	b.enc = json.NewEncoder(&b.Buffer)
	return b
}}

// frame encodes state as one frame, valid until b's next use.
func (b *frameBuf) frame(state SessionState) ([]byte, error) {
	b.Reset()
	b.Write(make([]byte, frameHeaderLen))
	if err := b.enc.Encode(state); err != nil {
		return nil, fmt.Errorf("checkpoint: encode session %q: %w", state.SessionID, err)
	}
	frame := b.Bytes()[:b.Len()-1] // Encode ends the payload with a newline
	sealFrame(frame)
	return frame, nil
}

// sealFrame fills in the header at the front of frame for the payload
// that follows it.
func sealFrame(frame []byte) {
	payload := frame[frameHeaderLen:]
	copy(frame[0:2], frameMagic[:])
	binary.LittleEndian.PutUint32(frame[2:6], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[6:10], crc32.ChecksumIEEE(payload))
}

// scanFrames reads frames from data until the first corrupt or
// truncated frame, returning the valid payloads in order. A bad tail is
// the expected post-crash shape and is not an error.
func scanFrames(data []byte) [][]byte {
	var out [][]byte
	for len(data) >= frameHeaderLen {
		if !bytes.Equal(data[0:2], frameMagic[:]) {
			break
		}
		n := binary.LittleEndian.Uint32(data[2:6])
		if n > maxFrameLen || int(n) > len(data)-frameHeaderLen {
			break // truncated or nonsense length
		}
		payload := data[frameHeaderLen : frameHeaderLen+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[6:10]) {
			break // torn write
		}
		out = append(out, payload)
		data = data[frameHeaderLen+int(n):]
	}
	return out
}

// segment is what recovery finds in one segment file.
type segment struct {
	newest SessionState // the newest decodable record, if ok
	ok     bool
	frames int // intact frames, undecodable ones included
	intact int // bytes of the intact frames; the rest is a torn tail
	size   int // bytes in the file
}

// scanSegment scans one segment's bytes. Later frames carry higher
// Seqs, so the newest record is the last intact frame whose JSON
// decodes.
func scanSegment(data []byte) segment {
	frames := scanFrames(data)
	s := segment{frames: len(frames), size: len(data)}
	for i := len(frames) - 1; i >= 0; i-- {
		s.intact += frameHeaderLen + len(frames[i])
		if !s.ok {
			state, err := decodeRecord(frames[i])
			s.newest, s.ok = state, err == nil
		}
	}
	return s
}

// loadLocked scans both segments, a missing file as empty, and returns
// them with the index of the one holding the newest record.
func (j *journal) loadLocked() ([2]segment, int, error) {
	var segs [2]segment
	newest := 0
	for i, p := range j.paths {
		data, err := os.ReadFile(p)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return [2]segment{}, 0, fmt.Errorf("checkpoint: read segment: %w", err)
		}
		segs[i] = scanSegment(data)
		if segs[i].ok && (!segs[newest].ok || segs[i].newest.Seq > segs[newest].newest.Seq) {
			newest = i
		}
	}
	return segs, newest, nil
}

// openLocked recovers the session on first use. Appends go on in the
// segment holding the newest record, cut back to its intact frames so
// that no torn tail hides the frames written after it.
func (j *journal) openLocked() error {
	if j.f != nil {
		return nil
	}
	segs, newest, err := j.loadLocked()
	if err != nil {
		return err
	}
	seg := segs[newest]
	f, err := os.OpenFile(j.paths[newest], os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: open segment: %w", err)
	}
	if seg.size > seg.intact {
		if err := f.Truncate(int64(seg.intact)); err != nil {
			return fmt.Errorf("checkpoint: cut torn tail: %w", errors.Join(err, f.Close()))
		}
	}
	j.f, j.active, j.appends, j.nextSeq = f, newest, seg.frames, seg.newest.Seq+1
	return nil
}

// append writes one record in one write, switching segments every
// snapshotEvery appends. It returns the assigned sequence number and
// the number of bytes written. A failed switch after a successful
// append returns the assigned seq together with an error wrapping
// ErrCompaction: the record IS durable, and the next append retries.
func (j *journal) append(state SessionState, snapshotEvery int) (uint64, int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.openLocked(); err != nil {
		return 0, 0, err
	}
	state.Seq = j.nextSeq
	buf := frameBufs.Get().(*frameBuf)
	defer frameBufs.Put(buf)
	frame, err := buf.frame(state)
	if err != nil {
		return 0, 0, err
	}
	if _, err := j.f.Write(frame); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: append: %w", err)
	}
	if j.fsync {
		if err := j.f.Sync(); err != nil {
			return 0, 0, fmt.Errorf("checkpoint: sync segment: %w", err)
		}
	}
	j.nextSeq++
	j.appends++
	if j.appends >= snapshotEvery {
		if err := j.switchLocked(); err != nil {
			return state.Seq, len(frame), fmt.Errorf("%w: %w", ErrCompaction, err)
		}
	}
	return state.Seq, len(frame), nil
}

// switchLocked moves appends to the other segment, emptied on open. The
// newest record is in the active segment, which is only closed, so the
// emptied segment never held it.
func (j *journal) switchLocked() error {
	other := 1 - j.active
	f, err := os.OpenFile(j.paths[other], os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: switch segment: %w", err)
	}
	old := j.f
	j.f, j.active, j.appends = f, other, 0
	return old.Close()
}

// load recovers the newest intact record.
func (j *journal) load() (SessionState, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	segs, newest, err := j.loadLocked()
	if err == nil && !segs[newest].ok {
		err = ErrNoState
	}
	return segs[newest].newest, err
}

// remove deletes both files and resets the handle.
func (j *journal) remove() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var errs []error
	if j.f != nil {
		errs = append(errs, j.f.Close())
		j.f = nil
	}
	for _, p := range j.paths {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
