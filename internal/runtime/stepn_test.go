package runtime

import (
	"fmt"
	"strings"
	"testing"

	"perpos/internal/channel"
	"perpos/internal/core"
	"perpos/internal/positioning"
)

// collectPositions subscribes a recorder to the session's provider.
func collectPositions(s *Session) *[]positioning.Position {
	var got []positioning.Position
	s.Provider().Subscribe(func(p positioning.Position) { got = append(got, p) })
	return &got
}

// treeSignature flattens every channel's current data tree into a
// stable string: channel ID, then a pre-order walk of component sources,
// kinds, payloads and logical times.
func treeSignature(t *testing.T, l *channel.Layer) string {
	t.Helper()
	var sb strings.Builder
	for _, c := range l.Channels() {
		tree, ok := c.LastTree()
		if !ok {
			fmt.Fprintf(&sb, "%s: <none>\n", c.ID())
			continue
		}
		fmt.Fprintf(&sb, "%s:", c.ID())
		var walk func(n *channel.TreeNode)
		walk = func(n *channel.TreeNode) {
			s := n.Sample
			fmt.Fprintf(&sb, " [%s %s %v @%d]", s.Source, s.Kind, s.Payload, s.Logical)
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		walk(tree.Root)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestStepNMatchesRepeatedStep: one StepN(k) call must be
// indistinguishable from k single Steps — identical position streams
// and identical end-state Fig. 4 data trees. StepN only amortizes the
// run lock; it must not change what the pipeline or the channel layer
// computes.
func TestStepNMatchesRepeatedStep(t *testing.T) {
	const steps = 256

	mBatch, err := NewManager(saturatedSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer mBatch.Close()
	mSingle, err := NewManager(saturatedSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer mSingle.Close()

	sBatch, err := mBatch.GetOrCreate("target-contract")
	if err != nil {
		t.Fatal(err)
	}
	sSingle, err := mSingle.GetOrCreate("target-contract")
	if err != nil {
		t.Fatal(err)
	}

	gotBatch := collectPositions(sBatch)
	gotSingle := collectPositions(sSingle)

	for done := 0; done < steps; done += 32 {
		if _, err := sBatch.StepN(32); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < steps; i++ {
		if _, err := sSingle.Step(); err != nil {
			t.Fatal(err)
		}
	}

	if len(*gotBatch) == 0 {
		t.Fatal("no positions delivered")
	}
	if len(*gotBatch) != len(*gotSingle) {
		t.Fatalf("batched delivered %d positions, single-step %d",
			len(*gotBatch), len(*gotSingle))
	}
	for i := range *gotBatch {
		if (*gotBatch)[i] != (*gotSingle)[i] {
			t.Fatalf("position %d differs:\nbatch:  %+v\nsingle: %+v",
				i, (*gotBatch)[i], (*gotSingle)[i])
		}
	}

	sigBatch := treeSignature(t, sBatch.layer)
	sigSingle := treeSignature(t, sSingle.layer)
	if sigBatch != sigSingle {
		t.Errorf("data trees diverge:\nbatch:\n%s\nsingle:\n%s", sigBatch, sigSingle)
	}
	if !strings.Contains(sigBatch, "gps.raw") {
		t.Errorf("tree signature looks empty:\n%s", sigBatch)
	}
}

// countingFeature counts channel deliveries; attaching it makes the
// layer build a data tree at every delivery.
type countingFeature struct{ seen int }

func (f *countingFeature) FeatureName() string          { return "count-trees" }
func (f *countingFeature) Apply(tree *channel.DataTree) { f.seen++ }

// TestStepNFeatureSeesEveryDelivery: a Channel Feature attached to a
// session must be applied once per channel delivery whether the session
// is driven by StepN or by single Steps, and the positions must match.
func TestStepNFeatureSeesEveryDelivery(t *testing.T) {
	run := func(batch bool) (int, []positioning.Position) {
		m, err := NewManager(saturatedSessionConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		s, err := m.GetOrCreate("target-eager")
		if err != nil {
			t.Fatal(err)
		}
		f := &countingFeature{}
		err = s.Adapt(func(g *core.Graph, l *channel.Layer) error {
			chans := l.ChannelsFrom("gps")
			if len(chans) == 0 {
				return fmt.Errorf("no channel from gps")
			}
			return chans[0].AttachFeature(f)
		})
		if err != nil {
			t.Fatal(err)
		}
		got := collectPositions(s)
		if batch {
			if _, err := s.StepN(128); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := 0; i < 128; i++ {
				if _, err := s.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return f.seen, *got
	}

	seenBatch, posBatch := run(true)
	seenSingle, posSingle := run(false)
	if seenBatch == 0 {
		t.Fatal("eager feature saw no trees")
	}
	if seenBatch != seenSingle {
		t.Errorf("eager feature saw %d trees batched, %d single-stepped",
			seenBatch, seenSingle)
	}
	// The gps channel ends at the interpreter, whose every emission is
	// one delivered position.
	if seenBatch != len(posBatch) {
		t.Errorf("eager feature saw %d trees for %d delivered positions", seenBatch, len(posBatch))
	}
	if len(posBatch) != len(posSingle) {
		t.Fatalf("positions: %d batched vs %d single", len(posBatch), len(posSingle))
	}
	for i := range posBatch {
		if posBatch[i] != posSingle[i] {
			t.Fatalf("position %d differs with eager feature", i)
		}
	}
}
