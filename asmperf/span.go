package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans in memory for the traced run. A span names one
// call across a layer boundary ("disk.read", "assembly.sched.next"),
// its start and end, its parent span and its query id. On end, each
// span's duration and self time — its duration minus the union of its
// children's intervals, since shard lanes overlap — are folded into
// per-name aggregates. The first keep spans are also retained as
// records and written out as JSONL when the run ends.
//
// A nil *tracer is the untraced run: every method is a no-op and
// returns nil spans.
type tracer struct {
	t0      time.Time
	nextID  atomic.Uint64
	off     atomic.Bool     // while set, no spans start (set-up traffic)
	sampled map[string]bool // names whose individual durations are kept

	mu      sync.Mutex
	aggs    map[string]*spanAgg
	kept    []spanRec
	keep    int
	dropped int64
}

// spanAgg accumulates every ended span of one name.
type spanAgg struct {
	Count int64
	Total time.Duration
	Self  time.Duration
	// Durs holds individual durations, for names the tracer samples.
	Durs latencies
	// KidUnion is, per child name, the summed union of that child's
	// intervals within each parent span: the wall time the parent
	// spent with at least one such child running.
	KidUnion map[string]time.Duration
}

// spanRec is one retained span, as written to the JSONL file.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	QID    uint64 `json:"qid"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is one open interval. Children report their intervals to it as
// they end; they may end concurrently.
type span struct {
	tr     *tracer
	id     uint64
	qid    uint64
	parent *span
	name   string
	start  int64

	mu   sync.Mutex
	kids []kid
}

// kid is one ended child's interval.
type kid struct {
	name   string
	lo, hi int64
}

// newTracer returns a tracer that retains up to keep span records and
// keeps individual durations for the sampled names.
func newTracer(keep int, sampled ...string) *tracer {
	t := &tracer{t0: time.Now(), keep: keep, aggs: map[string]*spanAgg{}, sampled: map[string]bool{}}
	for _, n := range sampled {
		t.sampled[n] = true
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && !t.off.Load() }

// root starts a span with no parent under query id qid.
func (t *tracer) root(name string, qid uint64) *span {
	if t == nil || t.off.Load() {
		return nil
	}
	return &span{tr: t, id: t.nextID.Add(1), qid: qid, name: name, start: t.now()}
}

// child starts a span under parent; a nil parent makes it a root span
// with query id 0.
func (t *tracer) child(parent *span, name string) *span {
	if t == nil || t.off.Load() {
		return nil
	}
	s := &span{tr: t, id: t.nextID.Add(1), parent: parent, name: name, start: t.now()}
	if parent != nil {
		s.qid = parent.qid
	}
	return s
}

// end closes the span, reports its interval to its parent and folds it
// into the tracer's aggregates.
func (s *span) end() {
	if s == nil {
		return
	}
	t := s.tr
	hi := t.now()
	s.mu.Lock()
	kids := s.kids
	s.kids = nil
	s.mu.Unlock()
	byName := map[string][]interval{}
	all := make([]interval, len(kids))
	for i, k := range kids {
		all[i] = interval{k.lo, k.hi}
		byName[k.name] = append(byName[k.name], interval{k.lo, k.hi})
	}
	dur := hi - s.start
	self := dur - unionLen(all, s.start, hi)
	if p := s.parent; p != nil {
		p.mu.Lock()
		p.kids = append(p.kids, kid{name: s.name, lo: s.start, hi: hi})
		p.mu.Unlock()
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[s.name]
	if a == nil {
		a = &spanAgg{KidUnion: map[string]time.Duration{}}
		t.aggs[s.name] = a
	}
	a.Count++
	a.Total += time.Duration(dur)
	a.Self += time.Duration(self)
	if t.sampled[s.name] {
		a.Durs = append(a.Durs, time.Duration(dur))
	}
	for name, iv := range byName {
		a.KidUnion[name] += time.Duration(unionLen(iv, s.start, hi))
	}
	if len(t.kept) < t.keep {
		var pid uint64
		if s.parent != nil {
			pid = s.parent.id
		}
		t.kept = append(t.kept, spanRec{ID: s.id, Parent: pid, QID: s.qid, Name: s.name, Start: s.start, End: hi})
	} else {
		t.dropped++
	}
}

// reset drops every aggregate and retained record, so a later stretch
// of the run is reported on its own. No span may be open.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.aggs = map[string]*spanAgg{}
	t.kept = nil
	t.dropped = 0
}

// agg returns a copy of the aggregate for name (zero if none ended).
func (t *tracer) agg(name string) spanAgg {
	if t == nil {
		return spanAgg{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[name]
	if a == nil {
		return spanAgg{}
	}
	c := *a
	c.Durs = append(latencies(nil), a.Durs...)
	c.KidUnion = map[string]time.Duration{}
	for k, v := range a.KidUnion {
		c.KidUnion[k] = v
	}
	return c
}

// writeJSONL writes the retained spans, one JSON object per line,
// ordered by start time. It returns how many spans were retained and
// how many were counted but not retained.
func (t *tracer) writeJSONL(path string) (kept int, dropped int64, err error) {
	t.mu.Lock()
	recs := append([]spanRec(nil), t.kept...)
	dropped = t.dropped
	t.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return 0, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return len(recs), dropped, f.Close()
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen returns the length of the union of the intervals, each
// clipped to [lo, hi). Overlapping intervals count once.
func unionLen(iv []interval, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := make([]interval, 0, len(iv))
	for _, x := range iv {
		if x.lo < lo {
			x.lo = lo
		}
		if x.hi > hi {
			x.hi = hi
		}
		if x.hi > x.lo {
			s = append(s, x)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	var curLo, curHi int64
	for i, x := range s {
		if i == 0 || x.lo > curHi {
			total += curHi - curLo
			curLo, curHi = x.lo, x.hi
			continue
		}
		if x.hi > curHi {
			curHi = x.hi
		}
	}
	return total + curHi - curLo
}

// spanKey carries the current span on a context.
type spanKey struct{}

// withSpan returns ctx carrying s; a nil span leaves ctx unchanged.
func withSpan(ctx context.Context, s *span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// spanFrom returns the span ctx carries, or nil.
func spanFrom(ctx context.Context) *span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*span)
	return s
}
