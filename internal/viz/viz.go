// Package viz renders building floor plans and position data as ASCII
// maps — the infrastructure-visualization use case the paper cites as a
// motivating detail-demanding application (Oppermann et al. [2]), and
// the medium for Fig. 6-style particle-filter snapshots in examples and
// experiment output.
package viz

import (
	"fmt"
	"math"
	"strings"

	"perpos/internal/building"
	"perpos/internal/geo"
)

// Canvas is a character grid mapped onto a local-coordinate window.
// Terminal cells are roughly twice as tall as wide, so one cell covers
// cellW x 2*cellW metres.
type Canvas struct {
	min, max geo.ENU
	cols     int
	rows     int
	cellW    float64 // metres per column
	cellH    float64 // metres per row
	cells    [][]rune
}

// NewCanvas returns a canvas covering [min, max] with the given width
// in characters (minimum 10).
func NewCanvas(min, max geo.ENU, cols int) *Canvas {
	if cols < 10 {
		cols = 10
	}
	width := max.East - min.East
	height := max.North - min.North
	if width <= 0 {
		width = 1
	}
	if height <= 0 {
		height = 1
	}
	cellW := width / float64(cols)
	cellH := cellW * 2 // compensate terminal cell aspect
	rows := int(math.Ceil(height/cellH)) + 1

	cells := make([][]rune, rows)
	for r := range cells {
		row := make([]rune, cols)
		for i := range row {
			row[i] = ' '
		}
		cells[r] = row
	}
	return &Canvas{min: min, max: max, cols: cols, rows: rows, cellW: cellW, cellH: cellH, cells: cells}
}

// cell maps a point to grid coordinates; ok is false outside the
// window.
func (c *Canvas) cell(p geo.ENU) (col, row int, ok bool) {
	col = int((p.East - c.min.East) / c.cellW)
	// Row 0 is the top (largest North).
	row = c.rows - 1 - int((p.North-c.min.North)/c.cellH)
	if col < 0 || col >= c.cols || row < 0 || row >= c.rows {
		return 0, 0, false
	}
	return col, row, true
}

// Plot draws a single marker; points outside the window are ignored.
// Later plots overwrite earlier ones.
func (c *Canvas) Plot(p geo.ENU, ch rune) {
	if col, row, ok := c.cell(p); ok {
		c.cells[row][col] = ch
	}
}

// PlotIfEmpty draws a marker only where the cell is still blank —
// used for dense clouds (particles) so they do not erase walls.
func (c *Canvas) PlotIfEmpty(p geo.ENU, ch rune) {
	if col, row, ok := c.cell(p); ok && c.cells[row][col] == ' ' {
		c.cells[row][col] = ch
	}
}

// Line draws a straight segment by sampling at sub-cell resolution.
func (c *Canvas) Line(a, b geo.ENU, ch rune) {
	d := a.Distance(b)
	steps := int(d/math.Min(c.cellW, c.cellH)*2) + 1
	for i := 0; i <= steps; i++ {
		f := float64(i) / float64(steps)
		c.Plot(geo.ENU{
			East:  a.East + f*(b.East-a.East),
			North: a.North + f*(b.North-a.North),
		}, ch)
	}
}

// Path draws a polyline.
func (c *Canvas) Path(points []geo.ENU, ch rune) {
	for i := 1; i < len(points); i++ {
		c.Line(points[i-1], points[i], ch)
	}
}

// String renders the canvas, top row first.
func (c *Canvas) String() string {
	var b strings.Builder
	for _, row := range c.cells {
		b.WriteString(strings.TrimRight(string(row), " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// DrawFloor draws a floor's walls ('#') onto the canvas.
func DrawFloor(c *Canvas, b *building.Building, level int) {
	f, ok := b.Floor(level)
	if !ok {
		return
	}
	for _, w := range f.Walls {
		c.Line(w.A, w.B, '#')
	}
}

// FloorCanvas returns a canvas sized to a floor (with a one-metre
// margin) and the floor already drawn. ok is false for unknown floors.
func FloorCanvas(b *building.Building, level, cols int) (*Canvas, bool) {
	min, max, ok := b.Bounds(level)
	if !ok {
		return nil, false
	}
	min.East--
	min.North--
	max.East++
	max.North++
	c := NewCanvas(min, max, cols)
	DrawFloor(c, b, level)
	return c, true
}

// Snapshot renders a Fig. 6-style frame: the floor plan with a particle
// cloud ('.'), the estimate trace ('o') and the ground truth ('*'),
// plus a legend line.
func Snapshot(b *building.Building, level, cols int, particles, estimates, truth []geo.ENU) string {
	c, ok := FloorCanvas(b, level, cols)
	if !ok {
		return ""
	}
	for _, p := range particles {
		c.PlotIfEmpty(p, '.')
	}
	c.Path(estimates, 'o')
	c.Path(truth, '*')
	return c.String() + "legend: # wall, . particle, o estimate, * ground truth\n"
}

// InfrastructureMap renders the deployment view of [2]: the floor plan
// with labelled markers (e.g. access points). Markers are (position,
// rune) pairs.
type Marker struct {
	Pos   geo.ENU
	Rune  rune
	Label string
}

// DrawInfrastructure renders the floor with markers and a legend.
func DrawInfrastructure(b *building.Building, level, cols int, markers []Marker) string {
	c, ok := FloorCanvas(b, level, cols)
	if !ok {
		return ""
	}
	var legend []string
	for _, m := range markers {
		c.Plot(m.Pos, m.Rune)
		if m.Label != "" {
			legend = append(legend, fmt.Sprintf("%c %s", m.Rune, m.Label))
		}
	}
	out := c.String()
	if len(legend) > 0 {
		out += "legend: # wall, " + strings.Join(legend, ", ") + "\n"
	}
	return out
}
