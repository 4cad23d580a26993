package building

import (
	"testing"
	"time"

	"perpos/internal/geo"
)

// benchPoints is a deterministic sweep over the evaluation floor:
// corridor, offices, boundaries and a few outdoor points — the mix the
// trace emulator and the room-number pipeline throw at RoomAt.
func benchPoints() []geo.ENU {
	var pts []geo.ENU
	for e := -1.0; e <= 41.0; e += 1.7 {
		for n := -1.0; n <= 13.0; n += 1.3 {
			pts = append(pts, geo.ENU{East: e, North: n})
		}
	}
	return pts
}

// BenchmarkRoomAt compares the grid-indexed lookup against the naive
// linear scan it replaced. RoomAt runs once per emitted position
// sample, so the grid path must stay sub-microsecond and beat the
// scan. The two alternate in chunks of 1024 lookups, swapping which
// goes first, and each chunk is timed: grid-ns/lookup over
// linear-ns/lookup divides measurements taken under the same host
// conditions, so it holds on any machine. An op is one lookup of each
// kind.
func BenchmarkRoomAt(b *testing.B) {
	const chunk = 1024
	bld := Evaluation()
	f, _ := bld.Floor(0)
	pts := benchPoints()
	// Each chunk calls its lookup directly, as callers do, so the grid
	// path stays inlined.
	var grid, linear time.Duration
	hits := 0
	gridChunk := func(from, to int) {
		n, start := 0, time.Now()
		for i := from; i < to; i++ {
			if _, ok := f.RoomAt(pts[i%len(pts)]); ok {
				n++
			}
		}
		grid += time.Since(start)
		hits += n
	}
	linearChunk := func(from, to int) {
		n, start := 0, time.Now()
		for i := from; i < to; i++ {
			if _, ok := f.roomAtLinear(pts[i%len(pts)]); ok {
				n++
			}
		}
		linear += time.Since(start)
		hits += n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		to := min(done+chunk, b.N)
		if done/chunk%2 == 0 {
			gridChunk(done, to)
			linearChunk(done, to)
		} else {
			linearChunk(done, to)
			gridChunk(done, to)
		}
	}
	sinkHits = hits
	b.ReportMetric(float64(grid.Nanoseconds())/float64(b.N), "grid-ns/lookup")
	b.ReportMetric(float64(linear.Nanoseconds())/float64(b.N), "linear-ns/lookup")
}

// sinkHits keeps the benchmarked lookups observable so the compiler
// cannot elide them.
var sinkHits int

func BenchmarkCrosses(b *testing.B) {
	bld := Evaluation()
	p := geo.ENU{East: 18, North: 6}
	q := geo.ENU{East: 18, North: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !bld.Crosses(p, q, 0) {
			b.Fatal("expected crossing")
		}
	}
}
