// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the session runtime configured the way the
// repository ships it, checks the outputs, and prints every metric by
// name and unit. Run it from the repository root through run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload gps-saturated --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it holds the per-layer split
// of a traced run, whose spans are written under .bench_build/perfbench.
// NOTES.md describes the workloads, the metrics and their definitions.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds everything a run writes: checkpoint stores and span
// dumps. It is relative to the repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

var workloads = map[string]func(runConfig) (result, error){
	"gps-saturated": runGPSSaturated,
	"fusion-paced":  runFusionPaced,
	"fleet-churn":   runFleetChurn,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fset.String("workload", "", "workload: gps-saturated, fusion-paced or fleet-churn")
	seed := fset.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fset.Int("seconds", 30, "measured seconds")
	traced := fset.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end metrics")
	spinner := fset.Bool("spin", false, "run as the keep-awake helper every run starts (see awake.go)")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if *spinner {
		return spin()
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 2 {
		return fmt.Errorf("--seconds must be at least 2, got %d", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	prov := provenance(*name, *seed)
	b, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", b)

	awake, err := keepAwake()
	if err != nil {
		return err
	}
	res, err := fn(runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1})
	awake.stop()
	if err != nil {
		return err
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", k, m.Value)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// provenance records what a result was measured on, so no number is
// without its hardware and source.
func provenance(workload string, seed int64) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"nproc":         goruntime.NumCPU(),
		"gomaxprocs":    goruntime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    goruntime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go file and go.mod under root (skipping
// hidden directories), identifying the measured source where no git
// commit is available.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
