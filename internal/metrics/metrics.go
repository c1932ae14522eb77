// Package metrics is the live-observability substrate of the
// reproduction: a dependency-free registry of atomic counters, gauges,
// and power-of-two histograms with labeled families, Prometheus
// text-format exposition, and snapshot/delta arithmetic.
//
// Where package trace answers "why did this run cost what it did" after
// the fact (an event stream replayed offline), this package answers
// "what is the system doing right now": every layer keeps its counters
// in registry-attachable cells that a scrape reads while the run is in
// flight. The two accountings — plus the harness's own Stats() structs
// — are reconciled by the three-way agreement tests; see DESIGN.md §9.
//
// Design rules:
//
//   - The package imports only the standard library, so every layer can
//     depend on it without cycles.
//   - The hot path is allocation-free: updating a cell is one atomic
//     RMW, whether or not the cell is attached to a registry. Attaching
//     never wraps or copies a cell, so "metrics enabled" costs exactly
//     what "metrics disabled" costs at the instrumentation point.
//   - Histograms use the same power-of-two bucketing as trace.Hist
//     (bucket 0 holds 0, bucket i holds [2^(i-1), 2^i)), so live and
//     replayed distributions are directly comparable.
package metrics

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing cell. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is a caller bug; it is not checked on the hot
// path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter. It exists only for re-arming the fault
// injector (disk.Faulty.SetConfig), whose counts describe one armed
// configuration; every other counter is never reset, and a run
// measures itself by differencing snapshots.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a cell that can go up and down. The zero value is ready to
// use; all methods are safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n is larger — the high-water-mark
// update (peak pins, peak window pages).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFunc is a gauge whose value is computed at scrape time — queue
// depths, head positions, pool occupancy. The function must be safe to
// call concurrently with the system it observes.
type GaugeFunc func() int64

// histBuckets matches trace.Hist: bucket i holds values v with
// bitlen(v) == i, enough for any int64.
const histBuckets = 64

// Histogram is a power-of-two histogram cell with atomic buckets. The
// zero value is ready to use; all methods are safe for concurrent use.
//
// A concurrent snapshot (HistView, Snapshot, exposition) is not a
// consistent cut — counts may be mid-update — but every sample lands
// exactly once, so at quiescence the view is exact.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     Gauge
}

// bucketOf maps a sample to its bucket index (identical to trace.Hist).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one sample; negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.max.SetMax(v)
}

// HistView is a point-in-time copy of a histogram. Its layout matches
// trace.Hist so live and replayed distributions can be compared (and
// rendered) with the same tooling.
type HistView struct {
	Buckets [histBuckets]int64
	Count   int64
	Sum     int64
	Max     int64
}

// View copies the histogram.
func (h *Histogram) View() HistView {
	var v HistView
	for i := range h.buckets {
		v.Buckets[i] = h.buckets[i].Load()
	}
	v.Count = h.count.Load()
	v.Sum = h.sum.Load()
	v.Max = h.max.Value()
	return v
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }
