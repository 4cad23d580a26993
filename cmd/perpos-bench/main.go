// Command perpos-bench regenerates the experiment tables of
// EXPERIMENTS.md: every paper evaluation artifact (DESIGN.md §4,
// experiments E1–E8) is re-run on the simulated substrates and printed
// as an aligned table.
//
// Usage:
//
//	perpos-bench            # run all experiments
//	perpos-bench -e E5      # one experiment
//	perpos-bench -e E5 -series
//	perpos-bench -list
//	perpos-bench -json bench.json   # also write per-experiment timings
//
// It is also CI's benchmark gate over `go test -bench` output (see
// gate.go for the checks a gate file holds):
//
//	perpos-bench -gate BENCH.json bench.txt
//	                        # fail (exit 1) when any check in BENCH.json
//	                        # misses its bound in bench.txt
//	perpos-bench -gate BENCH.json bench.txt -json BENCH.json
//	                        # also rewrite each check's median and the
//	                        # machine it was measured on
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"perpos/internal/eval"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perpos-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perpos-bench", flag.ContinueOnError)
	exp := fs.String("e", "", "experiment ID to run (default: all)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	series := fs.Bool("series", false, "emit plot series where supported (E5)")
	jsonPath := fs.String("json", "", "write per-experiment timings (ns/op, samples/s) to this file; with -gate, rewrite the gate file's medians into it")
	gate := fs.String("gate", "", "gate file (BENCH.json) to check the go test -bench output operand against, instead of running experiments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The flag package stops at the first positional, but -gate takes a
	// bench output operand followed (possibly) by -json: keep re-parsing
	// the remainder so flags and operands interleave freely.
	var operands []string
	for rest := fs.Args(); len(rest) > 0; {
		if strings.HasPrefix(rest[0], "-") {
			if err := fs.Parse(rest); err != nil {
				return err
			}
			rest = fs.Args()
			continue
		}
		operands = append(operands, rest[0])
		rest = rest[1:]
	}

	if *gate != "" {
		if len(operands) != 1 {
			return fmt.Errorf("-gate needs one go test -bench output file, got %d", len(operands))
		}
		return runGate(*gate, operands[0], *jsonPath)
	}

	if *list {
		for _, id := range eval.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	experiments := eval.Experiments()
	if *series {
		experiments["E5"] = func() (eval.Result, error) {
			return eval.RunE5(eval.E5Config{Series: true})
		}
	}

	ids := eval.IDs()
	if *exp != "" {
		id := strings.ToUpper(*exp)
		if _, ok := experiments[id]; !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		ids = []string{id}
	}

	var timings []timing
	for _, id := range ids {
		start := time.Now()
		result, err := experiments[id]()
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(result.Table())
		t := timing{ID: id, Title: result.Title, NsOp: elapsed.Nanoseconds(), Samples: result.Samples}
		if result.Samples > 0 && elapsed > 0 {
			t.SamplesPerSec = float64(result.Samples) / elapsed.Seconds()
		}
		timings = append(timings, t)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(timings, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d timings to %s\n", len(timings), *jsonPath)
	}
	return nil
}

// timing is one experiment's wall-clock record for -json output.
type timing struct {
	ID            string  `json:"id"`
	Title         string  `json:"title"`
	NsOp          int64   `json:"ns_op"`
	Samples       int     `json:"samples,omitempty"`
	SamplesPerSec float64 `json:"samples_per_sec,omitempty"`
}
