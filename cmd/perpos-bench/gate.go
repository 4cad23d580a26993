package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// The benchmark gate. A gate file (BENCH.json at the repository root)
// holds checks over the rows of one `go test -bench -count N`
// invocation. A check takes the median, across the invocation's runs,
// of one metric of one row; when it names an "over" operand it divides
// that by the median of a second row or metric of the same invocation.
// The result must stay within the check's max or min. No bound is a
// number measured on another machine: each is an exact count
// (allocs/op), a ratio of two rows that ran side by side, or a share
// of the ceiling a paced row's own pace and window imply, so the gate
// means the same on any hardware. -json records each check's median,
// and the machine it was measured on, beside its bound; bounds are
// only ever edited by hand.

// gateFile is the gate file's schema.
type gateFile struct {
	// Command is the `go test` invocation the medians come from.
	Command    string  `json:"command"`
	MeasuredOn machine `json:"measured_on"`
	Checks     []check `json:"checks"`
}

// machine names the hardware and toolchain a gate file was measured on.
type machine struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
}

// check is one gated quantity: Row's Metric, over Over when set.
type check struct {
	Name   string   `json:"name"`
	Row    string   `json:"row"`
	Metric string   `json:"metric"`
	Over   *operand `json:"over,omitempty"`
	Max    *float64 `json:"max,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	Median float64  `json:"median"`
}

// operand is a check's denominator; an empty field means the check's
// own row or metric.
type operand struct {
	Row    string `json:"row,omitempty"`
	Metric string `json:"metric,omitempty"`
}

// benchRun is one `go test -bench` invocation's output: every value
// each row reported per metric unit, one per -count run. Row names
// have their -<GOMAXPROCS> suffix stripped.
type benchRun struct {
	cpu  string
	rows map[string]map[string][]float64
}

// runGate checks the bench output at benchPath against the gate file
// at gatePath, printing one line per check. With jsonPath set it also
// writes the gate file back there with each check's median and the
// current machine. It fails when any check misses its bound or its
// rows.
func runGate(gatePath, benchPath, jsonPath string) error {
	gf, err := readGateFile(gatePath)
	if err != nil {
		return err
	}
	f, err := os.Open(benchPath)
	if err != nil {
		return err
	}
	run, err := parseGoBench(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(run.rows) == 0 {
		return fmt.Errorf("no Benchmark lines in %s", benchPath)
	}

	was := gf.MeasuredOn
	var failed []string
	fmt.Printf("%-40s %10s %12s %8s\n", "check", "median", "bound", "margin")
	for i := range gf.Checks {
		c := &gf.Checks[i]
		v, err := c.value(run)
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", c.Name, err))
			fmt.Printf("%-40s MISSING %v\n", c.Name, err)
			continue
		}
		c.Median = roundSig(v)
		bound, margin := c.bound(v)
		status := "ok"
		if margin < 0 {
			status = "FAILED"
			failed = append(failed, fmt.Sprintf("%s: %.4g, bound %s", c.Name, v, bound))
		}
		fmt.Printf("%-40s %10.4g %12s %7.1f%%  %s\n", c.Name, v, bound, margin*100, status)
	}

	if jsonPath != "" {
		gf.MeasuredOn = machine{NProc: runtime.NumCPU(), CPU: run.cpu, Go: runtime.Version()}
		data, err := json.MarshalIndent(gf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d medians to %s\n", len(gf.Checks), jsonPath)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d checks failed:\n  %s", len(failed), len(gf.Checks), strings.Join(failed, "\n  "))
	}
	fmt.Printf("all %d checks hold (%s medians were measured on %d x %s, %s)\n",
		len(gf.Checks), gatePath, was.NProc, was.CPU, was.Go)
	return nil
}

// readGateFile loads and validates a gate file. Unknown fields are
// errors, so a misspelt bound cannot leave a check unbounded.
func readGateFile(path string) (gateFile, error) {
	var gf gateFile
	data, err := os.ReadFile(path)
	if err != nil {
		return gf, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&gf); err != nil {
		return gf, fmt.Errorf("%s: %w", path, err)
	}
	if len(gf.Checks) == 0 {
		return gf, fmt.Errorf("%s: no checks", path)
	}
	for _, c := range gf.Checks {
		switch {
		case c.Name == "" || c.Row == "" || c.Metric == "":
			return gf, fmt.Errorf("%s: check %q needs a name, a row and a metric", path, c.Name)
		case (c.Max == nil) == (c.Min == nil):
			return gf, fmt.Errorf("%s: check %q needs exactly one of max and min", path, c.Name)
		case c.Over != nil && c.Over.Row == "" && c.Over.Metric == "":
			return gf, fmt.Errorf("%s: check %q divides by itself", path, c.Name)
		}
	}
	return gf, nil
}

// value is the check's quantity in run: its metric's median, divided
// by the over operand's median when there is one.
func (c *check) value(run benchRun) (float64, error) {
	v, err := run.median(c.Row, c.Metric)
	if err != nil || c.Over == nil {
		return v, err
	}
	row, metric := c.Over.Row, c.Over.Metric
	if row == "" {
		row = c.Row
	}
	if metric == "" {
		metric = c.Metric
	}
	d, err := run.median(row, metric)
	if err != nil {
		return 0, err
	}
	if d == 0 {
		return 0, fmt.Errorf("%s %s is 0", row, metric)
	}
	return v / d, nil
}

// bound renders the check's bound and returns the margin by which v
// keeps it, as a fraction of the bound: negative when v misses it.
func (c *check) bound(v float64) (string, float64) {
	if c.Max != nil {
		return fmt.Sprintf("<= %.4g", *c.Max), (*c.Max - v) / *c.Max
	}
	return fmt.Sprintf(">= %.4g", *c.Min), (v - *c.Min) / *c.Min
}

// median is the median of a row's metric across the runs.
func (r benchRun) median(row, metric string) (float64, error) {
	metrics, ok := r.rows[row]
	if !ok {
		return 0, fmt.Errorf("no %s row", row)
	}
	vs := append([]float64(nil), metrics[metric]...)
	if len(vs) == 0 {
		return 0, fmt.Errorf("%s reports no %s", row, metric)
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 0 {
		return (vs[mid-1] + vs[mid]) / 2, nil
	}
	return vs[mid], nil
}

// roundSig rounds v to four significant digits for the gate file.
func roundSig(v float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 4, 64), 64)
	return r
}

// parseGoBench reads `go test -bench` output: the "cpu:" header and
// result lines such as "BenchmarkX/sub-8  1000  42 ns/op  3 allocs/op
// 10.5 samples/s", keeping every value/unit pair after the iteration
// count under the row's name without its -<GOMAXPROCS> suffix, so rows
// are named the same on any machine.
func parseGoBench(r io.Reader) (benchRun, error) {
	run := benchRun{rows: make(map[string]map[string][]float64)}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			run.cpu = strings.TrimSpace(cpu)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		row := stripProcSuffix(fields[0])
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if run.rows[row] == nil {
				run.rows[row] = make(map[string][]float64)
			}
			run.rows[row][fields[i+1]] = append(run.rows[row][fields[i+1]], v)
		}
	}
	return run, sc.Err()
}

// stripProcSuffix removes go test's trailing -<GOMAXPROCS> from a
// benchmark name.
func stripProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
