package disk

import (
	"revelation/internal/metrics"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// Arm is the head accounting every seek-modelling device shares: the
// head position, the counters behind Stats() and the asm_disk_* metric
// families, and the event tracer. Access books one physical access in
// one call, so Sim, FileDevice and the page-service client cannot
// drift apart in how they charge the paper's metric.
//
// Arm does no locking of its own. The owning device calls Access,
// Head, Park and SetTracer under the mutex that serialises its
// accesses, so each head update sits in the same critical section as
// the access it accounts and concurrent accesses book their seeks in
// device order. Stats reads atomic cells and is safe from any
// goroutine, including a live metrics scraper.
type Arm struct {
	head PageID
	tr   *trace.Tracer

	reads     metrics.Counter
	writes    metrics.Counter
	seekTotal metrics.Counter
	seekReads metrics.Counter
	maxSeek   metrics.Gauge
}

// Access moves the head to p and books the seek: into the counters,
// into sp for a read (sp may be nil), and as a disk event carrying the
// head position before the access and sp's query id.
func (a *Arm) Access(p PageID, read bool, sp *qtrace.Span) {
	prev := a.head
	dist := int64(p) - int64(prev)
	if dist < 0 {
		dist = -dist
	}
	a.head = p
	a.seekTotal.Add(dist)
	a.maxSeek.SetMax(dist)
	kind := trace.KindWrite
	if read {
		kind = trace.KindRead
		a.reads.Inc()
		a.seekReads.Add(dist)
		sp.OnRead(dist)
	} else {
		a.writes.Inc()
	}
	a.tr.DiskQ(kind, int64(p), int64(prev), dist, sp.QID())
}

// Head reports the head position.
func (a *Arm) Head() PageID { return a.head }

// Park moves the head to page 0 without accounting a seek (ResetHead).
func (a *Arm) Park() { a.head = 0 }

// SetTracer installs the tracer Access emits disk events to; nil
// disables them.
func (a *Arm) SetTracer(t *trace.Tracer) { a.tr = t }

// Stats snapshots the counters. They are never reset: callers that
// want one run's traffic difference two snapshots with Stats.Sub.
func (a *Arm) Stats() Stats {
	return Stats{
		Reads:     a.reads.Value(),
		Writes:    a.writes.Value(),
		SeekTotal: a.seekTotal.Value(),
		SeekReads: a.seekReads.Value(),
		MaxSeek:   a.maxSeek.Value(),
	}
}

// Register attaches the counters to r under the asm_disk_* families,
// labeled with the device name, and exports d's live head position and
// size as scrape-time gauges. d is the device that owns the arm.
func (a *Arm) Register(r *metrics.Registry, dev string, d Device) {
	head := metrics.GaugeFunc(func() int64 { return int64(d.Head()) })
	size := metrics.GaugeFunc(func() int64 { return int64(d.NumPages()) })
	r.Attach("asm_disk_reads_total", "Physical page reads.", &a.reads, "dev", dev)
	r.Attach("asm_disk_writes_total", "Physical page writes.", &a.writes, "dev", dev)
	r.Attach("asm_disk_seek_pages_total", "Total head movement in pages, reads and writes.", &a.seekTotal, "dev", dev)
	r.Attach("asm_disk_read_seek_pages_total", "Head movement attributable to reads only.", &a.seekReads, "dev", dev)
	r.Attach("asm_disk_max_seek_pages", "Largest single seek observed.", &a.maxSeek, "dev", dev)
	r.Attach("asm_disk_head_position", "Current head position in pages.", head, "dev", dev)
	r.Attach("asm_disk_size_pages", "Device size in pages.", size, "dev", dev)
}
