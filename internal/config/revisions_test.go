package config

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"perpos/internal/core"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/runtime"
	"perpos/internal/trace"
)

// sessionBase supplies what the versioned definition doesn't carry:
// a per-target simulated receiver for the "gps" placeholder (the "app"
// sink placeholder is terminated by the manager itself).
func sessionBase() runtime.SessionConfig {
	tr := trace.OutdoorTrack(testOrigin, 1, 2, 100, 1.4, time.Second)
	return runtime.SessionConfig{
		Overrides: func(sessionID string) []core.InstantiateOption {
			return []core.InstantiateOption{
				core.WithComponentOverride("gps", func(id string) core.Component {
					return gps.NewReceiver(id, tr, gps.Config{Seed: 2})
				}),
			}
		},
		Provider: positioning.ProviderInfo{Technology: "gps", TypicalAccuracy: 5},
		History:  8,
	}
}

// versionedJSON is a two-revision pipeline: revision 1 the plain GPS
// chain, revision 2 with a transport-mode Segmenter tapped off the
// interpreter. The shared slots carry the same type in both revisions,
// so a diff must see them as Unchanged.
const versionedJSON = `{
  "name": "versioned-gps",
  "initial_revision": 1,
  "revisions": [
    {
      "components": [
        {"id": "gps"},
        {"id": "parser", "type": "Parser"},
        {"id": "interpreter", "type": "Interpreter"},
        {"id": "app"}
      ],
      "connections": [
        {"from": "gps", "to": "parser", "port": 0},
        {"from": "parser", "to": "interpreter", "port": 0},
        {"from": "interpreter", "to": "app", "port": 0}
      ],
      "features": [
        {"component": "parser", "feature": "satellites"}
      ]
    },
    {
      "components": [
        {"id": "gps"},
        {"id": "parser", "type": "Parser"},
        {"id": "interpreter", "type": "Interpreter"},
        {"id": "segmenter", "type": "Segmenter"},
        {"id": "app"}
      ],
      "connections": [
        {"from": "gps", "to": "parser", "port": 0},
        {"from": "parser", "to": "interpreter", "port": 0},
        {"from": "interpreter", "to": "app", "port": 0},
        {"from": "interpreter", "to": "segmenter", "port": 0}
      ],
      "features": [
        {"component": "parser", "feature": "satellites"}
      ]
    }
  ]
}`

func TestParseVersionedPipeline(t *testing.T) {
	p, err := Parse(strings.NewReader(versionedJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Revisions) != 2 {
		t.Fatalf("revisions = %d, want 2", len(p.Revisions))
	}
	if p.InitialRevision != 1 {
		t.Errorf("initial_revision = %d, want 1", p.InitialRevision)
	}
}

// TestBlueprintSetFromRevisions: the loader reifies each revision into
// a frozen blueprint and identity-tags typed slots, so the structural
// diff between the revisions is exactly the spliced smoother.
func TestBlueprintSetFromRevisions(t *testing.T) {
	p, err := Parse(strings.NewReader(versionedJSON))
	if err != nil {
		t.Fatal(err)
	}
	l, _ := newLoader(t)
	set, err := l.BlueprintSet(p)
	if err != nil {
		t.Fatal(err)
	}
	if set.Name() != "versioned-gps" {
		t.Errorf("set name = %q", set.Name())
	}
	if set.Latest() != 2 {
		t.Fatalf("Latest = %d, want 2", set.Latest())
	}
	d, err := set.Diff(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Added, []string{"segmenter"}) {
		t.Errorf("Added = %v, want [segmenter]", d.Added)
	}
	wantKept := []string{"app", "gps", "interpreter", "parser"}
	if !reflect.DeepEqual(d.Unchanged, wantKept) {
		t.Errorf("Unchanged = %v, want %v", d.Unchanged, wantKept)
	}
	// The satellites feature is named identically in both revisions:
	// no churn on the unchanged parser.
	if len(d.AttachFeatures) != 0 || len(d.DetachFeatures) != 0 {
		t.Errorf("feature churn = %v/%v, want none", d.AttachFeatures, d.DetachFeatures)
	}
	if len(d.DropEdges) != 0 {
		t.Errorf("DropEdges = %v, want none", d.DropEdges)
	}
	wantMake := []core.Edge{{From: "interpreter", To: "segmenter", Port: 0}}
	if !reflect.DeepEqual(d.MakeEdges, wantMake) {
		t.Errorf("MakeEdges = %v, want %v", d.MakeEdges, wantMake)
	}
}

// TestBlueprintSetSingleRevision: a plain pipeline definition wraps
// into a one-revision set, so versioned and unversioned configs share
// every downstream code path.
func TestBlueprintSetSingleRevision(t *testing.T) {
	p, err := Parse(strings.NewReader(fig1JSON))
	if err != nil {
		t.Fatal(err)
	}
	l, _ := newLoader(t)
	set, err := l.BlueprintSet(p)
	if err != nil {
		t.Fatal(err)
	}
	if set.Latest() != 1 {
		t.Fatalf("Latest = %d, want 1", set.Latest())
	}
	d, err := set.Diff(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Errorf("self-diff not empty: %+v", d)
	}
}

// TestManagerFromVersionedPipeline wires a versioned definition through
// Loader.Manager: sessions start on the declared initial revision and
// a rollout to revision 2 migrates them.
func TestManagerFromVersionedPipeline(t *testing.T) {
	p, err := Parse(strings.NewReader(versionedJSON))
	if err != nil {
		t.Fatal(err)
	}
	l, _ := newLoader(t)
	m, err := l.Manager(p, sessionBase())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.ActiveRevision(); got != 1 {
		t.Fatalf("active revision = %d, want 1", got)
	}
	s, err := m.GetOrCreate("alice")
	if err != nil {
		t.Fatal(err)
	}
	if s.Revision() != 1 {
		t.Fatalf("session revision = %d, want 1", s.Revision())
	}
	if _, ok := s.Graph().Node("segmenter"); ok {
		t.Fatal("revision 1 session has the revision 2 segmenter")
	}
	if _, err := s.StepN(3); err != nil {
		t.Fatal(err)
	}

	rep, err := m.Rollout(context.Background(), runtime.RolloutConfig{
		To:             2,
		CanaryFraction: 0.2,
		CanaryWindow:   250 * time.Millisecond,
		Gate:           runtime.GateConfig{MaxErrors: 3},
	})
	if err != nil {
		t.Fatalf("Rollout: %v (report %+v)", err, rep)
	}
	if s.Revision() != 2 {
		t.Fatalf("session revision after rollout = %d, want 2", s.Revision())
	}
	if _, ok := s.Graph().Node("segmenter"); !ok {
		t.Fatal("migrated session lacks the segmenter")
	}
	if _, err := s.StepN(3); err != nil {
		t.Fatal(err)
	}
}
