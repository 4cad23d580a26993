package gps

import (
	"encoding/json"
	"testing"
	"time"

	"perpos/internal/core"
)

// TestReceiverRestoreRefusesUnknownMode: a restored mode outside Off,
// Acquiring and Tracking is refused, and leaves the receiver as it was;
// Step has no case for it, so such a receiver would emit nothing yet
// report more to come.
func TestReceiverRestoreRefusesUnknownMode(t *testing.T) {
	src := NewReceiver("gps", outdoorTrace(0), Config{Seed: 1, ColdStart: time.Second})
	for i := 0; i < 5; i++ {
		if _, err := src.Step(func(core.Sample) {}); err != nil {
			t.Fatal(err)
		}
	}
	state, err := src.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(state, &fields); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		mode Mode
		ok   bool
	}{
		{"off", ModeOff, true},
		{"acquiring", ModeAcquiring, true},
		{"tracking", ModeTracking, true},
		{"zero", 0, false},
		{"past-tracking", ModeTracking + 1, false},
		{"negative", -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fields["mode"] = tc.mode
			data, err := json.Marshal(fields)
			if err != nil {
				t.Fatal(err)
			}
			r := NewReceiver("gps", outdoorTrace(0), Config{Seed: 1, ColdStart: time.Second})
			err = r.UnmarshalState(data)
			if !tc.ok {
				if err == nil {
					t.Fatalf("mode %d restored without error", tc.mode)
				}
				if r.Mode() != ModeAcquiring {
					t.Fatalf("refused restore left mode %v, want the fresh receiver's %v", r.Mode(), ModeAcquiring)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if r.Mode() != tc.mode {
				t.Fatalf("restored mode = %v, want %v", r.Mode(), tc.mode)
			}
		})
	}
}
