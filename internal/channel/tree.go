// Package channel implements the PerPos Process Channel Layer (PCL):
// the positioning process abstracted to data sources, merge components
// and the application, connected by Channels (paper §2.2).
//
// A Channel encapsulates the linear pipeline between its end points and
// groups, for every datum it delivers, all intermediate data that
// logically contributed to it into a hierarchical data tree ordered by
// logical time (Fig. 4). Channel Features (the Likelihood and EnTracked
// features of §3.2–3.3) receive each tree through Apply and expose
// cross-step functionality that no single Processing Component could
// provide.
package channel

import (
	"fmt"
	"strings"

	"perpos/internal/core"
)

// TreeNode is one datum in a data tree together with the ID of the
// Processing Component that produced it. Children are the data elements
// from the next component upstream whose logical times fall within this
// datum's consumption span — exactly the Fig. 4 grouping.
type TreeNode struct {
	Sample   core.Sample
	Children []*TreeNode
}

// DataTree is the hierarchical grouping of every intermediate data
// element that contributed to one Channel output (Fig. 4). The root is
// the sample delivered by the Channel end point; leaves are sensor data.
//
// A tree is a plain value: the layer builds one for a delivery that has
// a consumer and shares it read-only with that delivery's Channel
// Features and tree observer, as it shares the payloads inside it.
// Nothing recycles it, so whoever wants it may keep it.
type DataTree struct {
	Root *TreeNode
}

// Entry pairs a sample with the component that produced it, as returned
// by Data — the (component, nmeaSentence) iteration of Fig. 5.
type Entry struct {
	ComponentID string
	Sample      core.Sample
}

// Data returns every sample in the tree with the given kind, in
// depth-first pre-order. This is the dataTree.getData(NMEASentence.class)
// operation from Fig. 5: Channel Features must cope with any number of
// matches at any depth, because intermediate filter components may have
// been inserted without their knowledge.
func (t *DataTree) Data(kind core.Kind) []Entry {
	var out []Entry
	t.walk(func(n *TreeNode) {
		if n.Sample.Kind == kind {
			out = append(out, Entry{ComponentID: n.Sample.Source, Sample: n.Sample})
		}
	})
	return out
}

// All returns every entry in the tree in depth-first pre-order.
func (t *DataTree) All() []Entry {
	var out []Entry
	t.walk(func(n *TreeNode) {
		out = append(out, Entry{ComponentID: n.Sample.Source, Sample: n.Sample})
	})
	return out
}

// Depth returns the number of layers in the tree (1 for a bare root).
// Fig. 4's GPS channel tree has depth 3: WGS84 <- NMEA <- strings.
func (t *DataTree) Depth() int {
	var depth func(n *TreeNode) int
	depth = func(n *TreeNode) int {
		max := 0
		for _, c := range n.Children {
			if d := depth(c); d > max {
				max = d
			}
		}
		return max + 1
	}
	if t == nil || t.Root == nil {
		return 0
	}
	return depth(t.Root)
}

// Size returns the total number of data elements in the tree.
func (t *DataTree) Size() int {
	n := 0
	t.walk(func(*TreeNode) { n++ })
	return n
}

func (t *DataTree) walk(fn func(*TreeNode)) {
	if t == nil || t.Root == nil {
		return
	}
	var rec func(n *TreeNode)
	rec = func(n *TreeNode) {
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
}

// String renders the tree in the Fig. 4 tuple style, one line per datum,
// indented by layer.
func (t *DataTree) String() string {
	var b strings.Builder
	var rec func(n *TreeNode, depth int)
	rec = func(n *TreeNode, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), n.Sample)
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	if t != nil && t.Root != nil {
		rec(t.Root, 0)
	}
	return b.String()
}
