package eval

import (
	"sort"
	"strconv"
)

// Runner executes one experiment with default configuration.
type Runner func() (Result, error)

// Experiments maps experiment IDs to their runners with default
// configurations — the per-experiment index of DESIGN.md §4.
func Experiments() map[string]Runner {
	return map[string]Runner{
		"E1":  RunE1,
		"E2":  RunE2,
		"E3":  RunE3,
		"E4":  RunE4,
		"E5":  func() (Result, error) { return RunE5(E5Config{}) },
		"E6":  RunE6,
		"E7":  func() (Result, error) { return RunE7(E7Config{}) },
		"E8":  func() (Result, error) { return RunE8(E8Config{}) },
		"E9":  RunE9,
		"E10": func() (Result, error) { return RunE10(E10Config{}) },
	}
}

// IDs returns the experiment IDs in numeric order (E1, E2, ..., E10).
func IDs() []string {
	exps := Experiments()
	ids := make([]string, 0, len(exps))
	for id := range exps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, _ := strconv.Atoi(ids[i][1:])
		b, _ := strconv.Atoi(ids[j][1:])
		return a < b
	})
	return ids
}
