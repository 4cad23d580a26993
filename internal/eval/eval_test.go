package eval

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"perpos/internal/geo"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

func TestStats(t *testing.T) {
	s := Stats([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Max != 5 {
		t.Errorf("Stats = %+v", s)
	}
	if math.Abs(s.RMSE-math.Sqrt(11)) > 1e-9 {
		t.Errorf("RMSE = %v, want sqrt(11)", s.RMSE)
	}
	if s.P95 < 4.5 || s.P95 > 5 {
		t.Errorf("P95 = %v", s.P95)
	}
	empty := Stats(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Errorf("empty Stats = %+v", empty)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 10}
	if q := quantile(sorted, 0.5); q != 5 {
		t.Errorf("quantile(0.5) = %v, want 5 (interpolated)", q)
	}
	if q := quantile(sorted, 0); q != 0 {
		t.Errorf("quantile(0) = %v", q)
	}
	if q := quantile(sorted, 1); q != 10 {
		t.Errorf("quantile(1) = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile(nil) = %v", q)
	}
}

func TestTrackingErrorStaleReports(t *testing.T) {
	origin := geo.Point{Lat: 56.16, Lon: 10.2}
	proj := geo.NewProjection(origin)
	start := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	// Target walks east 1 m/s for 100 s; a single report at t=0.
	tr := &trace.Trace{Origin: origin}
	for i := 0; i <= 100; i++ {
		tr.Points = append(tr.Points, trace.Point{
			Time:  start.Add(time.Duration(i) * time.Second),
			Local: geo.ENU{East: float64(i)},
		})
	}
	reports := []positioning.Position{{Time: start, Global: proj.ToGlobal(geo.ENU{})}}
	errs := TrackingError(tr, reports)
	if len(errs) != 101 {
		t.Fatalf("errs = %d, want 101", len(errs))
	}
	// The error grows linearly to ~100 m.
	if errs[0] > 0.5 || math.Abs(errs[100]-100) > 1 {
		t.Errorf("errs[0]=%v errs[100]=%v", errs[0], errs[100])
	}
	if TrackingError(tr, nil) != nil {
		t.Error("no reports should yield nil")
	}
}

func TestResultTable(t *testing.T) {
	r := Result{
		ID:     "EX",
		Title:  "demo",
		Header: []string{"a", "bee"},
		Rows:   [][]string{{"1", "2"}, {"longer", "x"}},
		Notes:  []string{"a note"},
	}
	tbl := r.Table()
	for _, want := range []string{"== EX: demo ==", "a note", "longer"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

// matchTable fails t unless r's table, as perpos-bench -e prints it,
// equals testdata/<ID>.txt. Regenerate a table from the repository root
// with go run ./cmd/perpos-bench -e E1 > internal/eval/testdata/E1.txt
func matchTable(t *testing.T, r Result) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", r.ID+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Table() + "\n"; got != string(want) {
		t.Errorf("%s table differs from testdata/%s.txt:\n--- got\n%s--- want\n%s", r.ID, r.ID, got, want)
	}
}

func getRow(t *testing.T, r Result, key string) []string {
	t.Helper()
	for _, row := range r.Rows {
		if row[0] == key {
			return row
		}
	}
	t.Fatalf("%s: no row %q in %v", r.ID, key, r.Rows)
	return nil
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestRunE1Shape(t *testing.T) {
	r, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "invalid") {
			t.Errorf("note: %s", n)
		}
	}
	outdoorErr := parseF(t, getRow(t, r, "outdoor mean error (m)")[1])
	if outdoorErr <= 0 || outdoorErr > 10 {
		t.Errorf("outdoor mean error = %v, want (0, 10]", outdoorErr)
	}
	roomAcc := parseF(t, getRow(t, r, "indoor room accuracy")[1])
	if roomAcc < 50 {
		t.Errorf("room accuracy = %v%%, want >= 50%%", roomAcc)
	}
	matchTable(t, r)
	t.Log("\n" + r.Table())
}

func TestRunE2Shape(t *testing.T) {
	r, err := RunE2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Notes) != 0 {
		t.Errorf("structure mismatches: %v", r.Notes)
	}
	matchTable(t, r)
	t.Log("\n" + r.Table())
}

func TestRunE3Shape(t *testing.T) {
	r, err := RunE3()
	if err != nil {
		t.Fatal(err)
	}
	layered := parseF(t, getRow(t, r, "trees with 3 layers")[1])
	if layered < 90 {
		t.Errorf("3-layer trees = %v%%, want >= 90%%", layered)
	}
	raws := parseF(t, getRow(t, r, "mean raw strings per tree")[1])
	if raws < 2 {
		t.Errorf("raw strings per tree = %v, want >= 2 (GGA+RMC+GSA grouped)", raws)
	}
	matchTable(t, r)
	t.Log("\n" + r.Table())
}

func TestRunE4Shape(t *testing.T) {
	r, err := RunE4()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "leaked") || strings.Contains(n, "did not reduce") {
			t.Errorf("shape violation: %s", n)
		}
	}
	withRow := getRow(t, r, "with filter")
	withoutRow := getRow(t, r, "without filter")
	if parseF(t, withRow[3]) >= parseF(t, withoutRow[3]) {
		t.Errorf("filter mean error %s !< unfiltered %s", withRow[3], withoutRow[3])
	}
	if parseF(t, withRow[2]) != 0 {
		t.Errorf("low-sat fixes leaked: %s", withRow[2])
	}
	matchTable(t, r)
	t.Log("\n" + r.Table())
}

func TestRunE5Shape(t *testing.T) {
	r, err := RunE5(E5Config{Series: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "SHAPE VIOLATION") {
			t.Error(n)
		}
	}
	var raw, pf float64
	for _, row := range r.Rows {
		switch row[0] {
		case "raw gps":
			raw = parseF(t, row[5])
		case "particle filter":
			pf = parseF(t, row[5])
		}
	}
	if pf <= 0 || raw/pf < 1.5 {
		t.Errorf("PF improvement %.2fx, want >= 1.5x (raw %.1f, pf %.1f)", raw/pf, raw, pf)
	}
	// Series data present for plotting.
	sawSeries := false
	for _, n := range r.Notes {
		if strings.HasPrefix(n, "series:") {
			sawSeries = true
			break
		}
	}
	if !sawSeries {
		t.Error("no series emitted with Series=true")
	}
	// perpos-bench -e E5 prints the table without the series.
	plain := r
	plain.Notes = nil
	for _, n := range r.Notes {
		if !strings.HasPrefix(n, "series:") {
			plain.Notes = append(plain.Notes, n)
		}
	}
	matchTable(t, plain)
	t.Log("\n" + r.Table())
}

func TestRunE6Shape(t *testing.T) {
	r, err := RunE6()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "SHAPE VIOLATION") {
			t.Error(n)
		}
	}
	// Monotonicity: larger EnTracked thresholds must not cost more
	// energy.
	var prevJ float64 = math.Inf(1)
	for _, row := range r.Rows {
		if !strings.HasPrefix(row[0], "entracked") {
			continue
		}
		j := parseF(t, row[1])
		if j > prevJ*1.1 {
			t.Errorf("energy not roughly monotone over thresholds: %s uses %.0f J after %.0f J",
				row[0], j, prevJ)
		}
		prevJ = j
	}
	matchTable(t, r)
	t.Log("\n" + r.Table())
}

func TestRunE7Shape(t *testing.T) {
	r, err := RunE7(E7Config{Samples: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 variants", len(r.Rows))
	}
	for _, row := range r.Rows {
		if parseF(t, row[3]) <= 0 {
			t.Errorf("non-positive throughput in %v", row)
		}
	}
	t.Log("\n" + r.Table())
}

func TestRunE8Shape(t *testing.T) {
	r, err := RunE8(E8Config{PoolSizes: []int{0, 10, 100}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Notes) != 0 {
		t.Errorf("notes: %v", r.Notes)
	}
	for _, row := range r.Rows {
		if row[3] != "true" {
			t.Errorf("pipeline broken at pool %s", row[0])
		}
		if row[1] != "2" {
			t.Errorf("created %s components at pool %s, want 2", row[1], row[0])
		}
	}
	t.Log("\n" + r.Table())
}

func TestRunE9Shape(t *testing.T) {
	r, err := RunE9()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "SHAPE VIOLATION") {
			t.Error(n)
		}
	}
	var rawTrans, hmmTrans float64
	var rawAcc, hmmAcc float64
	for _, row := range r.Rows {
		switch row[0] {
		case "classifier only":
			rawAcc = parseF(t, row[2])
			rawTrans = parseF(t, row[3])
		case "classifier + HMM":
			hmmAcc = parseF(t, row[2])
			hmmTrans = parseF(t, row[3])
		}
	}
	if hmmAcc < rawAcc {
		t.Errorf("HMM accuracy %.0f%% below classifier %.0f%%", hmmAcc, rawAcc)
	}
	if hmmTrans >= rawTrans/2 {
		t.Errorf("HMM transitions %v not well below classifier flicker %v", hmmTrans, rawTrans)
	}
	matchTable(t, r)
	t.Log("\n" + r.Table())
}

func TestIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != 10 || ids[0] != "E1" || ids[9] != "E10" {
		t.Fatalf("IDs = %v", ids)
	}
	exps := Experiments()
	for _, id := range ids {
		if exps[id] == nil {
			t.Errorf("ID %s has no experiment", id)
		}
	}
}

func TestRunE10Shape(t *testing.T) {
	r, err := RunE10(E10Config{Particles: []int{50, 400}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	small := parseF(t, r.Rows[0][2])
	large := parseF(t, r.Rows[1][2])
	// Larger populations must not be dramatically worse.
	if large > small*1.3 {
		t.Errorf("RMSE grew with population: %v -> %v", small, large)
	}
	for _, row := range r.Rows {
		if parseF(t, row[4]) <= 0 {
			t.Errorf("non-positive cost in %v", row)
		}
	}
	t.Log("\n" + r.Table())
}
