// Package configs embeds the repository's shipped pipeline
// definitions, so a binary that loads one runs from any directory.
//
// rules-fusion.json is the one definition of the Fig. 2 fusion
// pipeline: its layout, its supervision reroutes and its adaptation
// rules. fusion-upgrade.json repeats that layout as revision 2 of a
// rolling upgrade from the plain GPS chain, and chaos-fusion.json holds
// only a checkpoint policy and a fault script to run against it.
package configs

import (
	"bytes"
	"embed"

	"perpos/internal/config"
)

//go:embed *.json
var files embed.FS

// Load parses the embedded definition with the given file name, such
// as "rules-fusion.json".
func Load(name string) (config.Pipeline, error) {
	def, err := files.ReadFile(name)
	if err != nil {
		return config.Pipeline{}, err
	}
	return config.Parse(bytes.NewReader(def))
}
