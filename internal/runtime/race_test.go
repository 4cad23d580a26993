//go:build race

package runtime

// raceEnabled reports a -race build, under which sync.Pool drops
// recycled objects at random, so allocation counts are not stable.
const raceEnabled = true
