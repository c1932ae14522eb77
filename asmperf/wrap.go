package main

import (
	"context"
	"sync/atomic"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
)

// The traced run interposes these wrappers at the library's own
// interfaces: disk.Device (under the pool, around each page-service
// member client and around each page server's backing device),
// assembly.Scheduler, object.Locator and buffer.WAL. Each forwards
// every call unchanged, records a span around it and counts it, so the
// traced run's deterministic counters must equal the untraced run's.
// The untraced run installs none of them.

// counts are the wrapper-side tallies the count-agreement check
// compares with the layers' own counters.
type counts struct {
	lookups              atomic.Int64
	schedCalls, handed   atomic.Int64
	walAppends, walSyncs atomic.Int64
	walBytes             atomic.Int64
}

// reset zeroes every tally.
func (c *counts) reset() {
	for _, v := range []*atomic.Int64{&c.lookups, &c.schedCalls, &c.handed, &c.walAppends, &c.walSyncs, &c.walBytes} {
		v.Store(0)
	}
}

// cursor holds the span of the operation a single-client workload is
// running, so calls that carry no context (a pool flush, a WAL append)
// still get a parent.
type cursor struct{ cur atomic.Pointer[span] }

func (c *cursor) set(s *span) {
	if c != nil {
		c.cur.Store(s)
	}
}

func (c *cursor) get() *span {
	if c == nil {
		return nil
	}
	return c.cur.Load()
}

// devWrap wraps a disk.Device. Reads and writes record spans named
// <layer>.read and <layer>.write; the parent is the span the read's
// context carries, else the cursor's.
type devWrap struct {
	disk.Device
	tr            *tracer
	cur           *cursor
	read, write   string
	reads, writes atomic.Int64
}

func wrapDevice(dev disk.Device, tr *tracer, cur *cursor, layer string) *devWrap {
	return &devWrap{Device: dev, tr: tr, cur: cur, read: layer + ".read", write: layer + ".write"}
}

func (d *devWrap) parent(ctx context.Context) *span {
	if s := spanFrom(ctx); s != nil {
		return s
	}
	return d.cur.get()
}

// ReadPage implements disk.Device.
func (d *devWrap) ReadPage(p disk.PageID, buf []byte) error {
	sp := d.tr.child(d.cur.get(), d.read)
	err := d.Device.ReadPage(p, buf)
	sp.end()
	d.reads.Add(1)
	return err
}

// ReadPageCtx implements disk.CtxReader, passing the context (and so
// the library's per-query attribution) through to the wrapped device,
// with this read's span as the parent of anything below it.
func (d *devWrap) ReadPageCtx(ctx context.Context, p disk.PageID, buf []byte) error {
	if ctx == nil {
		return d.ReadPage(p, buf)
	}
	sp := d.tr.child(d.parent(ctx), d.read)
	err := disk.ReadPageCtx(withSpan(ctx, sp), d.Device, p, buf)
	sp.end()
	d.reads.Add(1)
	return err
}

// WritePage implements disk.Device.
func (d *devWrap) WritePage(p disk.PageID, buf []byte) error {
	sp := d.tr.child(d.cur.get(), d.write)
	err := d.Device.WritePage(p, buf)
	sp.end()
	d.writes.Add(1)
	return err
}

var _ disk.CtxReader = (*devWrap)(nil)

// schedWrap wraps an assembly.Scheduler for one query; its spans hang
// under the span the query's cursor holds (its assembly span).
type schedWrap struct {
	inner assembly.Scheduler
	tr    *tracer
	cur   *cursor
	n     *counts
}

// wrapScheduler wraps s; when s is an assembly.BatchScheduler the
// result is one too, so the operator's shard prefetch still engages.
func wrapScheduler(s assembly.Scheduler, tr *tracer, cur *cursor, n *counts) assembly.Scheduler {
	w := &schedWrap{inner: s, tr: tr, cur: cur, n: n}
	if b, ok := s.(assembly.BatchScheduler); ok {
		return &batchWrap{schedWrap: w, b: b}
	}
	return w
}

func (s *schedWrap) Name() string { return s.inner.Name() }
func (s *schedWrap) Len() int     { return s.inner.Len() }

func (s *schedWrap) Add(refs ...*assembly.Ref) {
	sp := s.tr.child(s.cur.get(), "assembly.sched.add")
	s.inner.Add(refs...)
	sp.end()
	s.n.schedCalls.Add(1)
}

func (s *schedWrap) Next(head disk.PageID) *assembly.Ref {
	sp := s.tr.child(s.cur.get(), "assembly.sched.next")
	r := s.inner.Next(head)
	sp.end()
	s.n.schedCalls.Add(1)
	if r != nil {
		s.n.handed.Add(1)
	}
	return r
}

func (s *schedWrap) TakeOnPage(p disk.PageID) []*assembly.Ref {
	sp := s.tr.child(s.cur.get(), "assembly.sched.take")
	rs := s.inner.TakeOnPage(p)
	sp.end()
	s.n.schedCalls.Add(1)
	s.n.handed.Add(int64(len(rs)))
	return rs
}

// batchWrap adds the assembly.BatchScheduler methods.
type batchWrap struct {
	*schedWrap
	b assembly.BatchScheduler
}

func (b *batchWrap) Lanes() int               { return b.b.Lanes() }
func (b *batchWrap) LaneOf(p disk.PageID) int { return b.b.LaneOf(p) }

func (b *batchWrap) NextBatch(head disk.PageID) []*assembly.Ref {
	sp := b.tr.child(b.cur.get(), "assembly.sched.batch")
	rs := b.b.NextBatch(head)
	sp.end()
	b.n.schedCalls.Add(1)
	b.n.handed.Add(int64(len(rs)))
	return rs
}

// locWrap wraps an object.Locator for one operation.
type locWrap struct {
	inner object.Locator
	tr    *tracer
	cur   *cursor
	n     *counts
}

func (l *locWrap) Lookup(oid object.OID) (heap.RID, bool, error) {
	sp := l.tr.child(l.cur.get(), "object.lookup")
	rid, ok, err := l.inner.Lookup(oid)
	sp.end()
	l.n.lookups.Add(1)
	return rid, ok, err
}

func (l *locWrap) Register(oid object.OID, rid heap.RID) error {
	sp := l.tr.child(l.cur.get(), "object.register")
	err := l.inner.Register(oid, rid)
	sp.end()
	return err
}

func (l *locWrap) Len() (int, error) { return l.inner.Len() }

// walWrap wraps the pool's buffer.WAL.
type walWrap struct {
	inner buffer.WAL
	tr    *tracer
	cur   *cursor
	n     *counts
}

func (w *walWrap) Append(id disk.PageID, img []byte) (uint64, error) {
	sp := w.tr.child(w.cur.get(), "wal.append")
	lsn, err := w.inner.Append(id, img)
	sp.end()
	w.n.walAppends.Add(1)
	w.n.walBytes.Add(int64(len(img)))
	return lsn, err
}

func (w *walWrap) SyncTo(lsn uint64) error {
	sp := w.tr.child(w.cur.get(), "wal.sync")
	err := w.inner.SyncTo(lsn)
	sp.end()
	w.n.walSyncs.Add(1)
	return err
}

// storeFor returns a Store over st's file and catalog whose locator is
// wrapped for one operation under the cursor's span; untraced, it
// returns st.
func storeFor(st *object.Store, tr *tracer, cur *cursor, n *counts) *object.Store {
	if tr == nil {
		return st
	}
	return &object.Store{File: st.File, Locator: &locWrap{inner: st.Locator, tr: tr, cur: cur, n: n}, Catalog: st.Catalog}
}
