// Command perpos-inspect renders the three levels of abstraction of a
// PerPos pipeline (Fig. 2): the Process Structure Layer's component
// tree, the Process Channel Layer's channels with their features, and
// the Positioning Layer provider — the seamful-design inspection
// surface for developers (§4).
//
// Usage:
//
//	perpos-inspect              # inspect the Fig. 2 fusion pipeline
//	perpos-inspect -layer psl   # one layer only (psl|pcl|pl)
//	perpos-inspect -map         # ASCII map of the WiFi deployment [2]
//	perpos-inspect -dot         # Graphviz DOT of the pipeline
//	perpos-inspect -trace       # replay briefly with Trace features and
//	                            # print each channel's end-to-end trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"perpos/internal/building"
	"perpos/internal/channel"
	"perpos/internal/core"
	"perpos/internal/eval"
	"perpos/internal/filter"
	"perpos/internal/obs"
	"perpos/internal/viz"
	"perpos/internal/wifi"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perpos-inspect:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perpos-inspect", flag.ContinueOnError)
	layerFlag := fs.String("layer", "all", "layer to show: psl, pcl, pl or all")
	mapFlag := fs.Bool("map", false, "render the WiFi infrastructure map instead")
	dotFlag := fs.Bool("dot", false, "emit the pipeline as Graphviz DOT instead")
	traceFlag := fs.Bool("trace", false, "replay briefly with Trace features attached and print each channel's end-to-end trace instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mapFlag {
		return printInfrastructureMap()
	}

	g, layer, _, provider, err := eval.BuildFig2(1)
	if err != nil {
		return err
	}
	defer layer.Close()

	if *dotFlag {
		return g.WriteDOT(os.Stdout, "perpos")
	}
	if *traceFlag {
		return printTraces(g, layer)
	}

	show := strings.ToLower(*layerFlag)
	out := &strings.Builder{}

	if show == "all" || show == "psl" {
		fmt.Fprintln(out, "=== Process Structure Layer (PSL) ===")
		for _, n := range g.Nodes() {
			spec := n.Spec()
			role := "component"
			switch {
			case spec.IsSource():
				role = "source"
			case spec.IsSink():
				role = "sink"
			case spec.IsMerge():
				role = "merge"
			}
			fmt.Fprintf(out, "%-16s %-9s kind=%-10s features=%v\n",
				n.ID(), role, spec.Output.Kind, n.Capabilities())
			for i, up := range n.Upstream() {
				if up == nil {
					fmt.Fprintf(out, "  port %d: (unconnected, accepts %v)\n", i, spec.Inputs[i].Accepts)
					continue
				}
				fmt.Fprintf(out, "  port %d <- %s\n", i, up.ID())
			}
		}
		fmt.Fprintf(out, "edges: %d\n\n", len(g.Edges()))
	}

	if show == "all" || show == "pcl" {
		fmt.Fprintln(out, "=== Process Channel Layer (PCL) ===")
		v := layer.View()
		fmt.Fprintf(out, "sources: %v\nmerges:  %v\nsinks:   %v\n", v.Sources, v.Merges, v.Sinks)
		for _, c := range v.Channels {
			fmt.Fprintf(out, "channel %-28s nodes=%v features=%v\n", c.ID, c.Nodes, c.Features)
		}
		out.WriteByte('\n')
	}

	if show == "all" || show == "pl" {
		fmt.Fprintln(out, "=== Positioning Layer (PL) ===")
		info := provider.Info()
		fmt.Fprintf(out, "provider %q: technology=%s accuracy=%.1fm roomLevel=%v\n",
			provider.Name(), info.Technology, info.TypicalAccuracy, info.RoomLevel)
		for _, name := range []string{filter.FeatureLikelihood, "gps.hdop"} {
			if f, ok := provider.Feature(name); ok {
				fmt.Fprintf(out, "feature %-12s reachable (%T)\n", name, f)
			} else {
				fmt.Fprintf(out, "feature %-12s not reachable\n", name)
			}
		}
	}

	if show != "all" && show != "psl" && show != "pcl" && show != "pl" {
		return fmt.Errorf("unknown layer %q", show)
	}
	fmt.Print(out.String())
	return nil
}

// printTraces is the translucent-tracing view: every component gets a
// Trace feature (span stamps on each emission), the pipeline replays a
// few steps, and each channel's last delivery (Channel.LastTree) is
// printed as an indented end-to-end trace — where each delivered datum
// spent its wall-clock time, organised by the logical time the PSL
// already maintains.
func printTraces(g *core.Graph, layer *channel.Layer) error {
	if err := obs.InstrumentGraph(g); err != nil {
		return err
	}
	if _, err := g.Run(40); err != nil {
		return err
	}
	fmt.Println("=== end-to-end traces (last delivery per channel) ===")
	for _, c := range layer.Channels() {
		fmt.Printf("channel %s\n", c.ID())
		t, _ := c.LastTree()
		for _, line := range strings.Split(strings.TrimRight(obs.FormatTrace(t), "\n"), "\n") {
			fmt.Printf("  %s\n", line)
		}
	}
	return nil
}

// printInfrastructureMap renders the evaluation building's WiFi
// deployment — the infrastructure-visualization use case of [2].
func printInfrastructureMap() error {
	b := building.Evaluation()
	network := wifi.DefaultDeployment(b)
	var markers []viz.Marker
	for i, ap := range network.APs() {
		label := ""
		if i == 0 {
			label = "access point"
		}
		markers = append(markers, viz.Marker{Pos: ap.Pos, Rune: 'A', Label: label})
	}
	fmt.Printf("%s\n", b)
	fmt.Print(viz.DrawInfrastructure(b, 0, 100, markers))
	return nil
}
