package configs

import (
	"io/fs"
	"reflect"
	"testing"
)

// Every shipped definition parses under the strict schema.
func TestEmbeddedDefinitionsParse(t *testing.T) {
	names, err := fs.Glob(files, "*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no definitions embedded")
	}
	for _, name := range names {
		if _, err := Load(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// The upgrade's fusion revision is rules-fusion.json's layout, so the
// rollout demo rolls a fleet onto the pipeline the other demos run.
func TestFusionUpgradeEndsOnRulesFusionLayout(t *testing.T) {
	fusion, err := Load("rules-fusion.json")
	if err != nil {
		t.Fatal(err)
	}
	up, err := Load("fusion-upgrade.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Revisions) != 2 || up.InitialRevision != 1 {
		t.Fatalf("fusion-upgrade.json: %d revisions starting at %d, want 2 starting at 1", len(up.Revisions), up.InitialRevision)
	}
	rev2 := up.Revisions[1]
	if !reflect.DeepEqual(rev2.Components, fusion.Components) {
		t.Errorf("revision 2 components = %+v\nrules-fusion.json    = %+v", rev2.Components, fusion.Components)
	}
	if !reflect.DeepEqual(rev2.Connections, fusion.Connections) {
		t.Errorf("revision 2 connections = %+v\nrules-fusion.json     = %+v", rev2.Connections, fusion.Connections)
	}
	if !reflect.DeepEqual(rev2.Features, fusion.Features) {
		t.Errorf("revision 2 features = %+v\nrules-fusion.json  = %+v", rev2.Features, fusion.Features)
	}
}
