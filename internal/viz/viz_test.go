package viz

import (
	"strings"
	"testing"

	"perpos/internal/building"
	"perpos/internal/geo"
)

func TestCanvasPlotAndRender(t *testing.T) {
	c := NewCanvas(geo.ENU{}, geo.ENU{East: 10, North: 10}, 20)
	c.Plot(geo.ENU{East: 5, North: 5}, 'X')
	out := c.String()
	if !strings.Contains(out, "X") {
		t.Errorf("marker missing:\n%s", out)
	}
	cols, rows := c.cols, c.rows
	if cols != 20 || rows < 5 {
		t.Errorf("Size = %d x %d", cols, rows)
	}
}

func TestCanvasIgnoresOutOfWindow(t *testing.T) {
	c := NewCanvas(geo.ENU{}, geo.ENU{East: 10, North: 10}, 20)
	c.Plot(geo.ENU{East: -5, North: 5}, 'X')
	c.Plot(geo.ENU{East: 5, North: 50}, 'X')
	if strings.Contains(c.String(), "X") {
		t.Error("out-of-window point plotted")
	}
}

func TestCanvasLineConnects(t *testing.T) {
	c := NewCanvas(geo.ENU{}, geo.ENU{East: 20, North: 20}, 40)
	c.Line(geo.ENU{East: 0, North: 10}, geo.ENU{East: 20, North: 10}, '-')
	// A horizontal line fills most of a row.
	found := false
	for _, line := range strings.Split(c.String(), "\n") {
		if strings.Count(line, "-") >= 30 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("line not contiguous:\n%s", c.String())
	}
}

func TestPlotIfEmptyDoesNotOverwrite(t *testing.T) {
	c := NewCanvas(geo.ENU{}, geo.ENU{East: 10, North: 10}, 20)
	p := geo.ENU{East: 5, North: 5}
	c.Plot(p, '#')
	c.PlotIfEmpty(p, '.')
	if strings.Contains(c.String(), ".") {
		t.Error("PlotIfEmpty overwrote a wall")
	}
}

func TestFloorCanvasDrawsWalls(t *testing.T) {
	b := building.Evaluation()
	c, ok := FloorCanvas(b, 0, 80)
	if !ok {
		t.Fatal("no canvas")
	}
	out := c.String()
	if strings.Count(out, "#") < 100 {
		t.Errorf("too few wall cells (%d):\n%s", strings.Count(out, "#"), out)
	}
	if _, ok := FloorCanvas(b, 9, 80); ok {
		t.Error("canvas for unknown floor")
	}
}

func TestSnapshotLegendAndMarkers(t *testing.T) {
	b := building.Evaluation()
	particles := []geo.ENU{{East: 20, North: 6}, {East: 21, North: 6.2}}
	estimates := []geo.ENU{{East: 18, North: 6}, {East: 22, North: 6}}
	truth := []geo.ENU{{East: 19, North: 10}, {East: 23, North: 10}}
	out := Snapshot(b, 0, 80, particles, estimates, truth)
	for _, want := range []string{"legend:", "o", "*", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q:\n%s", want, out)
		}
	}
	if Snapshot(b, 9, 80, nil, nil, nil) != "" {
		t.Error("snapshot for unknown floor")
	}
}

func TestDrawInfrastructure(t *testing.T) {
	b := building.Evaluation()
	out := DrawInfrastructure(b, 0, 80, []Marker{
		{Pos: geo.ENU{East: 6, North: 6}, Rune: 'A', Label: "access point"},
	})
	if !strings.Contains(out, "A") || !strings.Contains(out, "access point") {
		t.Errorf("infrastructure map incomplete:\n%s", out)
	}
}

func TestCanvasDegenerateWindow(t *testing.T) {
	// Zero-size window must not panic or divide by zero.
	c := NewCanvas(geo.ENU{}, geo.ENU{}, 5)
	c.Plot(geo.ENU{}, 'x')
	if c.String() == "" {
		t.Error("degenerate canvas renders nothing")
	}
}
