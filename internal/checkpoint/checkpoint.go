// Package checkpoint is the durability subsystem: append-only,
// CRC-framed journals of session-state records, so a tracked target's
// positioning process — its filter estimates, replay positions and
// logical clocks — survives eviction and process death. The design
// follows the classic checkpoint-and-replay recipe (re-execution from
// durable intermediate state, à la MapReduce's recovery story) applied
// at the granularity of one session's Process Structure Layer state.
//
// Layout: each session owns two segments under the store directory,
// <escaped-id>.journal and <escaped-id>.snap, each a file of appended
// frames, newest last. Appends go to one segment; every
// Options.SnapshotEvery appends the session switches to the other,
// emptied as it opens, so both stay bounded. A frame is
//
//	magic(2) | length(4, LE) | crc32(4, LE, IEEE of payload) | payload
//
// with a JSON-encoded SessionState payload. Recovery scans each segment
// until its first bad frame — a torn write at the tail after a crash
// is expected, not fatal — and the highest sequence number decodable
// from either segment wins.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"perpos/internal/core"
)

// Errors returned by the store.
var (
	// ErrClosed indicates use after Close.
	ErrClosed = errors.New("checkpoint: store closed")
	// ErrNoState indicates Load found no usable state for the session.
	ErrNoState = errors.New("checkpoint: no state for session")
	// ErrCompaction indicates an append landed durably (the returned
	// seq is valid and recoverable) but the switch to the other segment
	// that followed it failed; the next append retries the switch.
	// Callers that only care about durability may treat it as a warning.
	ErrCompaction = errors.New("checkpoint: segment switch failed")
	// ErrLocked indicates another store (in this or another process)
	// holds the directory's exclusive lock. Two writers appending to the
	// same journals would interleave frames and corrupt each other's
	// recovery, so Open fails fast instead.
	ErrLocked = errors.New("checkpoint: store directory locked by another store")
)

// SessionState is one durable checkpoint of a session: everything
// ResumeSession needs to rebuild the target's pipeline where it left
// off. Graph structure is NOT recorded — the Blueprint owns that; the
// state rides on top of a structurally identical fresh instance.
type SessionState struct {
	// SessionID is the tracked target the state belongs to.
	SessionID string `json:"session_id"`
	// Seq is the store-assigned checkpoint sequence number, strictly
	// increasing per session. The newest surviving record wins recovery.
	Seq uint64 `json:"seq"`
	// Taken is the wall-clock time the checkpoint was captured.
	Taken time.Time `json:"taken"`
	// Graph carries the logical clocks, span bookkeeping and component
	// state of every node (core.Graph.SnapshotState).
	Graph core.GraphState `json:"graph"`
	// Availability is the provider's JSR-179 state at capture time
	// (positioning.Availability's integer value).
	Availability int `json:"availability"`
	// Revision is the blueprint revision the session was running when
	// captured (0 for sessions of an unversioned blueprint). Resume
	// rehydrates onto the manager's active revision regardless — state
	// for nodes absent there is skipped — but the recorded revision
	// tells an operator what the checkpoint's layout was.
	Revision int `json:"revision,omitempty"`
}

// Options configure a Store.
type Options struct {
	// SnapshotEvery is how many appends a session's segment takes
	// before the session switches to its other segment (default 8; 1
	// switches on every append).
	SnapshotEvery int
	// Fsync forces an fsync after every append. Off by default: the
	// segments already survive process crashes (the torn tail is
	// skipped); Fsync additionally covers OS crashes at a heavy
	// per-checkpoint cost.
	Fsync bool
	// OnAppend, when set, observes every Append: the session, the
	// frame bytes written (0 when nothing reached the file), the
	// wall-clock duration of the durable write, and its error. The
	// signature matches obs.(*Metrics).CheckpointAppend so a metrics hub
	// wires in directly. Called outside the journal lock.
	OnAppend func(sessionID string, bytes int, d time.Duration, err error)
}

func (o Options) withDefaults() Options {
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 8
	}
	return o
}

// Store manages the checkpoint files of many sessions under one
// directory. All methods are safe for concurrent use; per-session
// operations serialize on the session's journal, so different sessions
// checkpoint in parallel.
type Store struct {
	dir  string
	opts Options
	lock *dirLock

	mu       sync.Mutex
	closed   bool
	sessions map[string]*journal
}

// Open returns a store rooted at dir, creating the directory if needed
// and taking its exclusive lock: a LOCK file under dir is flock'd so a
// second store on the same directory — in this process or another —
// fails fast with ErrLocked instead of corrupting the journals. The
// lock is advisory, held for the store's lifetime and released by Close
// (or by the OS when the process dies, so a crashed writer never wedges
// the directory).
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", dir, err)
	}
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	return &Store{
		dir:      dir,
		opts:     opts.withDefaults(),
		lock:     lock,
		sessions: make(map[string]*journal),
	}, nil
}

// journalFor returns (creating on demand) the session's journal handle.
func (s *Store) journalFor(id string) (*journal, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	j, ok := s.sessions[id]
	if !ok {
		stem := filepath.Join(s.dir, escapeID(id))
		j = &journal{paths: [2]string{stem + journalExt, stem + snapExt}, fsync: s.opts.Fsync}
		s.sessions[id] = j
	}
	return j, nil
}

// Append durably records one checkpoint for state.SessionID in one
// write, assigning and returning its sequence number. Every
// Options.SnapshotEvery appends the session switches segments: the
// other segment is emptied and takes the appends from then on. An
// error wrapping ErrCompaction means the record itself IS durable (the
// returned seq is valid) but the switch failed.
func (s *Store) Append(state SessionState) (uint64, error) {
	j, err := s.journalFor(state.SessionID)
	if err != nil {
		if s.opts.OnAppend != nil {
			s.opts.OnAppend(state.SessionID, 0, 0, err)
		}
		return 0, err
	}
	start := time.Now()
	seq, n, err := j.append(state, s.opts.SnapshotEvery)
	if s.opts.OnAppend != nil {
		s.opts.OnAppend(state.SessionID, n, time.Since(start), err)
	}
	return seq, err
}

// Load recovers the newest intact checkpoint for the session: the
// highest-Seq record that decodes from either segment. A corrupt or
// truncated segment tail silently falls back to the last good frame
// before it. Returns ErrNoState when the session has no usable state at
// all.
func (s *Store) Load(sessionID string) (SessionState, error) {
	j, err := s.journalFor(sessionID)
	if err != nil {
		return SessionState{}, err
	}
	return j.load()
}

// Sessions lists the IDs with checkpoint files on disk, sorted.
func (s *Store) Sessions() ([]string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: list %s: %w", s.dir, err)
	}
	seen := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		var base string
		switch {
		case strings.HasSuffix(name, journalExt):
			base = strings.TrimSuffix(name, journalExt)
		case strings.HasSuffix(name, snapExt):
			base = strings.TrimSuffix(name, snapExt)
		default:
			continue
		}
		if id, ok := unescapeID(base); ok {
			seen[id] = true
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, nil
}

// Detach closes the session's journal file handle and forgets it
// WITHOUT deleting the files — the handoff-safe release. The source
// side of a session handoff calls it after exporting state: the files
// stay on disk as a resurrection backstop until the receiver
// acknowledges, and the closed handle means a later Remove (the purge
// on acknowledgment) or an adopting peer's re-open races against
// nothing. A subsequent Append/Load on the same ID lazily re-opens the
// files. Detaching an unknown session is a no-op.
func (s *Store) Detach(sessionID string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	j, ok := s.sessions[sessionID]
	if ok {
		delete(s.sessions, sessionID)
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	return j.close()
}

// Remove deletes the session's checkpoint files — called when a target
// is deliberately untracked and its state should not be resumable.
func (s *Store) Remove(sessionID string) error {
	j, err := s.journalFor(sessionID)
	if err != nil {
		return err
	}
	if err := j.remove(); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.sessions, sessionID)
	s.mu.Unlock()
	return nil
}

// Close releases every open journal file. The store is unusable after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	for _, j := range s.sessions {
		if err := j.close(); err != nil {
			errs = append(errs, err)
		}
	}
	s.sessions = nil
	if s.lock != nil {
		if err := s.lock.release(); err != nil {
			errs = append(errs, err)
		}
		s.lock = nil
	}
	return errors.Join(errs...)
}

// decodeRecord deserializes a frame payload.
func decodeRecord(payload []byte) (SessionState, error) {
	var state SessionState
	if err := json.Unmarshal(payload, &state); err != nil {
		return SessionState{}, fmt.Errorf("checkpoint: decode record: %w", err)
	}
	return state, nil
}

// escapeID maps a session ID to a filesystem-safe file stem:
// alphanumerics, '-' and '_' pass through, everything else becomes
// %XX. The mapping is invertible so Sessions can list IDs.
func escapeID(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// unescapeID reverses escapeID.
func unescapeID(s string) (string, bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		if i+2 >= len(s) {
			return "", false
		}
		var v int
		if _, err := fmt.Sscanf(s[i+1:i+3], "%02X", &v); err != nil {
			return "", false
		}
		b.WriteByte(byte(v))
		i += 2
	}
	return b.String(), true
}
