package channel

import (
	"reflect"
	"sort"
)

// FeatureMethods returns the exported method names of the named feature
// (Channel Feature or a member component's Component Feature) — the
// paper's "inspection of the Channels and the methods they provide",
// which is what lets a developer discover, e.g., that the likelihood
// feature offers getLikelihood before type-asserting to its interface.
func (c *Channel) FeatureMethods(name string) ([]string, bool) {
	f, ok := c.Feature(name)
	if !ok {
		return nil, false
	}
	return MethodsOf(f), true
}

// MethodsOf lists the exported methods of any feature value, sorted.
func MethodsOf(v any) []string {
	if v == nil {
		return nil
	}
	t := reflect.TypeOf(v)
	out := make([]string, 0, t.NumMethod())
	for i := 0; i < t.NumMethod(); i++ {
		out = append(out, t.Method(i).Name)
	}
	sort.Strings(out)
	return out
}

// Description summarises a channel for inspection tooling: nodes,
// consumer and the methods of every attached feature.
type Description struct {
	ID       string
	Nodes    []string
	Consumer string
	Features []FeatureDescription
}

// FeatureDescription is one feature's inspection record.
type FeatureDescription struct {
	Name    string
	Methods []string
}

// Describe returns the channel's inspection record.
func (c *Channel) Describe() Description {
	d := Description{
		ID:    c.ID(),
		Nodes: c.NodeIDs(),
	}
	if c.consumer != nil {
		d.Consumer = c.consumer.ID()
	}
	for _, name := range c.FeatureNames() {
		methods, _ := c.FeatureMethods(name)
		d.Features = append(d.Features, FeatureDescription{Name: name, Methods: methods})
	}
	return d
}
