// Package disk models the dedicated disk device of the paper's
// evaluation: a linear array of fixed-size pages with a single head.
// Every physical read or write moves the head and accounts the seek
// distance in pages, which is the paper's performance metric
// ("average seek distance, in pages of size 1K bytes").
//
// The device is deliberately simple and deterministic: the query
// processor is assumed to have exclusive control over the request
// queue, exactly as in the paper (Section 6), so scheduling decisions
// made by the assembly operator translate directly into head movement.
package disk

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"revelation/internal/metrics"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// PageID addresses a page on a device. Pages are numbered from zero.
type PageID uint32

// InvalidPage is a sentinel for "no page".
const InvalidPage = PageID(^uint32(0))

// DefaultPageSize is the page size used throughout the paper: 1 KB.
const DefaultPageSize = 1024

// Common errors returned by devices.
var (
	ErrOutOfRange = errors.New("disk: page out of range")
	ErrClosed     = errors.New("disk: device closed")
	ErrBadLength  = errors.New("disk: buffer length does not match page size")
)

// Stats accumulates the device counters the benchmarks report.
type Stats struct {
	Reads     int64 // physical page reads
	Writes    int64 // physical page writes
	SeekTotal int64 // total head movement in pages (reads and writes)
	SeekReads int64 // head movement attributable to reads only
	MaxSeek   int64 // largest single seek observed
}

// AvgSeekPerRead is the paper's metric: total seek distance divided by
// the number of reads. It returns zero when no reads happened.
func (s Stats) AvgSeekPerRead() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.SeekReads) / float64(s.Reads)
}

// Sub returns the counter difference s - prev, for reporting a run's
// activity from two snapshots of a device. Devices never reset their
// counters, so this is how every run measures itself. MaxSeek is not a
// counter and cannot be differenced; the result carries s's value, the
// device-lifetime maximum and an upper bound for the interval.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Reads:     s.Reads - prev.Reads,
		Writes:    s.Writes - prev.Writes,
		SeekTotal: s.SeekTotal - prev.SeekTotal,
		SeekReads: s.SeekReads - prev.SeekReads,
		MaxSeek:   s.MaxSeek,
	}
}

// Add returns the counter sum s + o, for devices that aggregate
// several arms; MaxSeek is the larger of the two.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:     s.Reads + o.Reads,
		Writes:    s.Writes + o.Writes,
		SeekTotal: s.SeekTotal + o.SeekTotal,
		SeekReads: s.SeekReads + o.SeekReads,
		MaxSeek:   max(s.MaxSeek, o.MaxSeek),
	}
}

// Device is a page-addressed block device with seek accounting.
// Implementations must be safe for concurrent use.
type Device interface {
	// ReadPage copies page p into buf, which must be exactly PageSize
	// bytes long.
	ReadPage(p PageID, buf []byte) error
	// WritePage copies buf (exactly PageSize bytes) into page p.
	WritePage(p PageID, buf []byte) error
	// Allocate extends the device by n pages and returns the first new
	// page id.
	Allocate(n int) (PageID, error)
	// NumPages reports the current device size in pages.
	NumPages() int
	// PageSize reports the page size in bytes.
	PageSize() int
	// Head reports the current head position.
	Head() PageID
	// Stats returns a snapshot of the device counters. Counters are
	// never reset; a run measures itself by differencing two snapshots
	// with Stats.Sub.
	Stats() Stats
	// ResetHead parks the head at page 0 without accounting a seek;
	// experiments call it so every run starts from the same position.
	ResetHead()
	// Close releases the device.
	Close() error
}

// FaultFunc lets tests inject I/O errors: it is consulted before every
// physical access with the page id and whether the access is a write.
// Returning a non-nil error aborts the access.
type FaultFunc func(p PageID, write bool) error

// TracerSetter is implemented by devices that accept an event tracer.
// Wrapper devices forward the tracer to the devices they wrap.
type TracerSetter interface {
	SetTracer(t *trace.Tracer)
}

// AttachTracer installs t on dev when the device supports tracing
// (pass nil to detach). It reports whether the device accepted it.
func AttachTracer(dev Device, t *trace.Tracer) bool {
	if ts, ok := dev.(TracerSetter); ok {
		ts.SetTracer(t)
		return true
	}
	return false
}

// Sim is the standard simulated device backed by an in-memory page
// store. It implements Device.
type Sim struct {
	mu       sync.Mutex
	pageSize int
	pages    [][]byte
	arm      Arm
	fault    FaultFunc
	closed   bool
}

// NewSim creates a simulated device with the given page size and an
// initial capacity of n pages (all zeroed).
func NewSim(pageSize, n int) *Sim {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	d := &Sim{pageSize: pageSize}
	d.pages = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		d.pages = append(d.pages, make([]byte, pageSize))
	}
	return d
}

// New creates a simulated device with the default 1 KB page size.
func New(n int) *Sim { return NewSim(DefaultPageSize, n) }

// SetFault installs an I/O fault injector; pass nil to clear it.
func (d *Sim) SetFault(f FaultFunc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fault = f
}

// SetTracer implements TracerSetter: every subsequent physical access
// emits a disk event carrying the head position before the access and
// the seek distance it cost. Pass nil to disable tracing; the disabled
// hot path pays one branch.
func (d *Sim) SetTracer(t *trace.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arm.SetTracer(t)
}

// RegisterMetrics implements MetricsRegistrar: the registry observes the
// very cells the access path updates, so a live scrape and Stats() can
// never disagree.
func (d *Sim) RegisterMetrics(r *metrics.Registry, dev string) {
	d.arm.Register(r, dev, d)
}

// ReadPage implements Device.
func (d *Sim) ReadPage(p PageID, buf []byte) error {
	return d.readPage(p, buf, nil)
}

// ReadPageCtx implements CtxReader: the read is additionally charged
// to the query span in ctx (nil span: identical to ReadPage).
func (d *Sim) ReadPageCtx(ctx context.Context, p PageID, buf []byte) error {
	return d.readPage(p, buf, spanFrom(ctx))
}

func (d *Sim) readPage(p PageID, buf []byte, sp *qtrace.Span) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(p, buf, false); err != nil {
		return err
	}
	d.arm.Access(p, true, sp)
	copy(buf, d.pages[p])
	return nil
}

// WritePage implements Device.
func (d *Sim) WritePage(p PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(p, buf, true); err != nil {
		return err
	}
	d.arm.Access(p, false, nil)
	copy(d.pages[p], buf)
	return nil
}

// check validates an access and consults the fault injector. Caller
// holds mu.
func (d *Sim) check(p PageID, buf []byte, write bool) error {
	if d.closed {
		return ErrClosed
	}
	if len(buf) != d.pageSize {
		return ErrBadLength
	}
	if int(p) >= len(d.pages) {
		return fmt.Errorf("%w: %s page %d of %d", ErrOutOfRange, accessName(write), p, len(d.pages))
	}
	if d.fault != nil {
		return d.fault(p, write)
	}
	return nil
}

// accessName names an access in error messages.
func accessName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// Allocate implements Device.
func (d *Sim) Allocate(n int) (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return InvalidPage, ErrClosed
	}
	if n < 0 {
		return InvalidPage, fmt.Errorf("disk: allocate %d pages", n)
	}
	first := PageID(len(d.pages))
	for i := 0; i < n; i++ {
		d.pages = append(d.pages, make([]byte, d.pageSize))
	}
	return first, nil
}

// NumPages implements Device.
func (d *Sim) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// PageSize implements Device.
func (d *Sim) PageSize() int { return d.pageSize }

// Head implements Device.
func (d *Sim) Head() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.arm.Head()
}

// Stats implements Device. The counters live in atomic cells, so this
// is safe to call from a scraper while accesses are in flight.
func (d *Sim) Stats() Stats { return d.arm.Stats() }

// ResetHead implements Device.
func (d *Sim) ResetHead() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arm.Park()
}

// Close implements Device.
func (d *Sim) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}
