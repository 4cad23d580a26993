// Package eval is the experiment harness: it rebuilds each evaluation
// artifact of the paper (DESIGN.md §4, experiments E1–E8) on the
// simulated substrates and renders the tables recorded in
// EXPERIMENTS.md. Every experiment is deterministic given its seed.
package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"perpos/internal/geo"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

// ErrorStats summarises a sample of positioning errors.
type ErrorStats struct {
	N      int
	Mean   float64
	Median float64
	P95    float64
	RMSE   float64
	Max    float64
}

// Stats computes ErrorStats over errs (metres).
func Stats(errs []float64) ErrorStats {
	if len(errs) == 0 {
		return ErrorStats{}
	}
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, e := range sorted {
		sum += e
		sumSq += e * e
	}
	return ErrorStats{
		N:      len(sorted),
		Mean:   sum / float64(len(sorted)),
		Median: quantile(sorted, 0.5),
		P95:    quantile(sorted, 0.95),
		RMSE:   math.Sqrt(sumSq / float64(len(sorted))),
		Max:    sorted[len(sorted)-1],
	}
}

// quantile returns the q-quantile of sorted values by linear
// interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[hi]*f
}

// TrackingError samples, once per second, the distance between the
// ground truth and the most recent reported position — the server-side
// view of a tracked target used by the EnTracked experiments.
func TrackingError(tr *trace.Trace, reports []positioning.Position) []float64 {
	if len(reports) == 0 || tr.Len() == 0 {
		return nil
	}
	proj := geo.NewProjection(tr.Origin)
	var out []float64
	ri := -1
	for ts := tr.Points[0].Time; !ts.After(tr.Points[tr.Len()-1].Time); ts = ts.Add(time.Second) {
		for ri+1 < len(reports) && !reports[ri+1].Time.After(ts) {
			ri++
		}
		if ri < 0 {
			continue
		}
		truth, _ := tr.At(ts)
		out = append(out, proj.ToLocal(reports[ri].Global).Distance(truth.Local))
	}
	return out
}

// PositionErrors computes per-report errors against ground truth.
func PositionErrors(tr *trace.Trace, reports []positioning.Position) []float64 {
	proj := geo.NewProjection(tr.Origin)
	out := make([]float64, 0, len(reports))
	for _, pos := range reports {
		truth, ok := tr.At(pos.Time)
		if !ok {
			continue
		}
		local := pos.Local
		if !pos.HasLocal {
			local = proj.ToLocal(pos.Global)
		}
		out = append(out, local.Distance(truth.Local))
	}
	return out
}

// Result is one experiment's rendered outcome.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Samples counts the positioning samples the experiment processed
	// (0 when the experiment doesn't track a sample count) — the basis
	// for throughput reporting in perpos-bench -json.
	Samples int
}

// Table renders the result as an aligned text table.
func (r Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

// itoa formats an int.
func itoa(v int) string { return fmt.Sprintf("%d", v) }
