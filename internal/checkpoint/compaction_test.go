package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// appendLog records OnAppend invocations.
type appendLog struct {
	mu    sync.Mutex
	calls []appendCall
}

type appendCall struct {
	id    string
	bytes int
	d     time.Duration
	err   error
}

func (l *appendLog) hook(id string, bytes int, d time.Duration, err error) {
	l.mu.Lock()
	l.calls = append(l.calls, appendCall{id, bytes, d, err})
	l.mu.Unlock()
}

func (l *appendLog) last(t *testing.T) appendCall {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.calls) == 0 {
		t.Fatal("OnAppend never called")
	}
	return l.calls[len(l.calls)-1]
}

func TestOnAppendObservesSuccess(t *testing.T) {
	log := &appendLog{}
	st, err := Open(t.TempDir(), Options{OnAppend: log.hook})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Append(testState("alice", 1)); err != nil {
		t.Fatal(err)
	}
	c := log.last(t)
	if c.id != "alice" || c.err != nil {
		t.Errorf("call = %+v, want alice/no error", c)
	}
	if c.bytes <= frameHeaderLen {
		t.Errorf("bytes = %d, want > header (%d)", c.bytes, frameHeaderLen)
	}
}

// TestAppendSurfacesCompactionFailure blocks the switch to the other
// segment by planting a dangling symlink at alice.snap whose target
// lies in a missing directory: opening it with O_CREATE fails with
// ENOENT for any euid, so this works under root too, and Load reads
// the missing target as an absent segment.
func TestAppendSurfacesCompactionFailure(t *testing.T) {
	dir := t.TempDir()
	log := &appendLog{}
	st, err := Open(dir, Options{SnapshotEvery: 1, OnAppend: log.hook})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap := filepath.Join(dir, "alice.snap")
	if err := os.Symlink(filepath.Join(dir, "missing", "alice.snap"), snap); err != nil {
		t.Fatal(err)
	}

	seq, err := st.Append(testState("alice", 1))
	if !errors.Is(err, ErrCompaction) {
		t.Fatalf("append error = %v, want wrapped ErrCompaction", err)
	}
	if seq != 1 {
		t.Errorf("seq = %d, want 1: the record is durable despite the failed switch", seq)
	}
	if c := log.last(t); !errors.Is(c.err, ErrCompaction) || c.bytes == 0 {
		t.Errorf("hook call = %+v, want switch error with frame bytes", c)
	}

	// The journal frame survived, so recovery still works…
	got, err := st.Load("alice")
	if err != nil {
		t.Fatalf("load after failed switch: %v", err)
	}
	if got.Seq != 1 {
		t.Errorf("loaded seq = %d, want 1", got.Seq)
	}

	// …and once the obstruction clears, the next append switches and
	// sequence numbering continues.
	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}
	seq, err = st.Append(testState("alice", 2))
	if err != nil {
		t.Fatalf("append after clearing: %v", err)
	}
	if seq != 2 {
		t.Errorf("seq = %d, want 2", seq)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Errorf("segment not switched after recovery: %v", err)
	}
}

// TestAppendReadOnlyDir covers the permission-denied shape of the same
// failure. Root bypasses mode bits, so this variant is skipped there;
// the symlink obstruction above keeps CI-as-root coverage.
func TestAppendReadOnlyDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("mode bits do not bind root")
	}
	dir := t.TempDir()
	log := &appendLog{}
	st, err := Open(dir, Options{SnapshotEvery: 1, OnAppend: log.hook})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)

	if _, err := st.Append(testState("alice", 1)); err == nil {
		t.Fatal("append into read-only dir succeeded")
	}
	if c := log.last(t); c.err == nil || c.bytes != 0 {
		t.Errorf("hook call = %+v, want error with zero bytes", c)
	}
}
