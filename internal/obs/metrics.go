package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. All methods are
// lock-free and safe for concurrent use; the zero value is ready.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (live sessions, open journals). The
// zero value is ready.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set overwrites the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets. Bucket 0
// holds observations with value <= 1 (negatives are clamped to 0);
// bucket i (i >= 1) holds 2^(i-1) < value <= 2^i, so for nanosecond
// latencies the range runs from 1ns to ~34s before the overflow bucket
// catches the rest.
const histBuckets = 36

// Histogram is a lock-free log2-bucketed distribution of non-negative
// int64 observations — latencies in nanoseconds, tree depths, byte
// counts. Recording is one atomic add to the sum and one increment of a
// bucket; the count is the buckets' total, which keeps a histogram
// shared by every session's goroutines to two contended atomics per
// observation. There is no locking anywhere, so concurrent Observe
// calls may be seen by a concurrent Snapshot in partially applied form.
// That skew is bounded by one observation and is irrelevant for
// monitoring.
//
// The zero value is ready.
type Histogram struct {
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// bucketOf returns the bucket index for value v per the histBuckets
// contract: 0 for v <= 1, else the smallest i with v <= 2^i, capped at
// the overflow bucket. bits.Len64(v-1) is that smallest i — the
// previous bits.Len64(v) put exact powers of two (including 1) one
// bucket too high, making every quantile bound for them twice the
// true value.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	// Lock-free max: retry while someone else raced a smaller value in.
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveDuration records a latency in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.State().Count }

// HistogramSnapshot is the exported view of a Histogram. Quantiles are
// upper-bound estimates from the log2 buckets (within 2x of the true
// value), which is plenty to spot a latency regression.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Snapshot captures the distribution.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [histBuckets]uint64
	total := uint64(0)
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{
		Count: total,
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if total == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(total)
	s.P50 = quantile(&counts, total, 0.50)
	s.P90 = quantile(&counts, total, 0.90)
	s.P99 = quantile(&counts, total, 0.99)
	return s
}

// HistogramState is a raw copy of a histogram's bucket counts, which
// Count and the Prometheus exposition read.
type HistogramState struct {
	Count   uint64
	Buckets [histBuckets]uint64
}

// State captures the histogram's current bucket counts.
func (h *Histogram) State() HistogramState {
	var s HistogramState
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// quantile returns the upper bound of the bucket containing the q-th
// observation.
func quantile(counts *[histBuckets]uint64, total uint64, q float64) int64 {
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	seen := uint64(0)
	for i, c := range counts {
		seen += c
		if seen > rank {
			if i >= 63 {
				return int64(^uint64(0) >> 1)
			}
			return int64(1) << i // bucket i holds values <= 2^i
		}
	}
	return 0
}
