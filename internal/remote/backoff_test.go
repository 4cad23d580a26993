package remote

import (
	"io"
	"net"
	"testing"
	"time"

	"perpos/internal/core"
)

// deadAddr returns an address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// forceDial clears the backoff gate so the next Process dials
// immediately — the tests step the failure sequence without sleeping.
func forceDial(u *Uplink) {
	u.mu.Lock()
	u.lastTry = time.Time{}
	u.mu.Unlock()
}

func TestUplinkBackoffGrowsExponentiallyAndCaps(t *testing.T) {
	base, max := uplinkBaseBackoff, uplinkMaxBackoff
	up := NewUplink("uplink", deadAddr(t), []core.Kind{"gps.raw"}, nil)
	defer up.Close()
	s := core.NewSample("gps.raw", "$x", time.Time{})

	jitter := uplinkJitter
	for i := 0; i < 8; i++ {
		forceDial(up)
		if err := up.Process(0, s, nil); err != nil {
			t.Fatalf("Process must drop, not error: %v", err)
		}
		got := up.backoff
		// Expected backoff before jitter: base doubled per prior failure,
		// capped at max.
		want := float64(base)
		for j := 0; j < i; j++ {
			want *= 2
			if want >= float64(max) {
				want = float64(max)
				break
			}
		}
		lo := time.Duration(want * (1 - jitter))
		if got < lo || got > max {
			t.Errorf("backoff after %d failures = %v, want in [%v, %v]", i+1, got, lo, max)
		}
	}
	if got := up.backoff; got < time.Duration(float64(max)*(1-jitter)) {
		t.Errorf("backoff never reached the cap region: %v", got)
	}
	_, dropped := up.Stats()
	if dropped != 8 {
		t.Errorf("dropped = %d, want 8", dropped)
	}
}

func TestUplinkBackoffResetsOnSuccess(t *testing.T) {
	// A listener that accepts and discards keeps dials succeeding.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, conn); conn.Close() }()
		}
	}()

	up := NewUplink("uplink", ln.Addr().String(), []core.Kind{"gps.raw"}, nil)
	defer up.Close()

	// Inflate the backoff state as if the peer had been down a while.
	up.mu.Lock()
	up.dialErrs = 5
	up.backoff = time.Second
	up.lastTry = time.Time{}
	up.mu.Unlock()

	if err := up.Process(0, core.NewSample("gps.raw", "$x", time.Time{}), nil); err != nil {
		t.Fatal(err)
	}
	sent, dropped := up.Stats()
	if sent != 1 || dropped != 0 {
		t.Fatalf("stats = %d sent %d dropped, want 1/0", sent, dropped)
	}
	if got := up.backoff; got != uplinkBaseBackoff {
		t.Errorf("backoff after successful dial = %v, want reset to base %v", got, uplinkBaseBackoff)
	}
}
