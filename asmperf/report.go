package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"
)

// phase is one measured stretch of a workload.
type phase struct {
	// first is the deterministic slice: the first epoch, or the
	// workload's sequential reference pass.
	first  detCounts
	epochs int

	qlat, wlat        latencies
	busy              time.Duration // summed operation service times, send to answer
	rates             []float64     // objects per second of service time, per epoch or open-loop query
	queries, batches  int64
	roots             int64 // roots requested by the queries
	asm               asmCounts
	pool              poolCounts
	dev               devCounts // backing devices, whole phase
	allocs, bytes     uint64
	heapMB            float64
	attempted, failed int64

	// extra holds workload-specific per-layer numbers of a traced
	// phase; they are printed but not part of the result line.
	extra []metric
}

// addQuery records a query's latency and service time. They differ only
// in the open loop, where latency counts from the due time and service
// time from the send.
func (ph *phase) addQuery(o queryOut, lat, service time.Duration, roots int) {
	ph.queries++
	ph.qlat = append(ph.qlat, lat)
	ph.busy += service
	ph.roots += int64(roots)
	ph.asm.add(o.stats, o.comps)
}

// addRate records one unit of work's objects per second of service
// time: an epoch in the closed loops, a query in the open loop. The
// median over units is objects_per_s, so a spell of a slower machine
// within a run moves it no more than it moves query_p50_ms.
func (ph *phase) addRate(objects int64, service time.Duration) {
	ph.rates = append(ph.rates, ratio(float64(objects), service.Seconds()))
}

// addEpoch folds one epoch's deterministic counters into the phase and,
// with rep non-nil, fails the run when they differ from the first
// epoch's.
func (ph *phase) addEpoch(det detCounts, rep *report) {
	if ph.epochs == 0 {
		ph.first = det
	} else if rep != nil && det != ph.first {
		rep.fail("epoch %d counters %+v differ from epoch 1 %+v", ph.epochs+1, det, ph.first)
	}
	ph.epochs++
	ph.pool.add(det.Pool)
	ph.dev.add(det.Dev)
}

func (c *devCounts) add(o devCounts) {
	c.Reads += o.Reads
	c.Writes += o.Writes
	c.SeekReads += o.SeekReads
	c.SeekTotal += o.SeekTotal
	c.Modeled += o.Modeled
}

// msPerObject is busy time per assembled complex object.
func (ph *phase) msPerObject() float64 {
	return ratio(ms(ph.busy), float64(ph.asm.Assembled))
}

// agree fails the run when a wrapper count differs from the layer's
// own counter.
func agree(rep *report, what string, got, want int64) {
	if got != want {
		rep.fail("count agreement: %s: %d != %d", what, got, want)
	}
}

// spanKeep bounds the span records a traced run retains for its JSONL
// file; every span is aggregated regardless.
const spanKeep = 50_000

// measureFunc runs a workload's measured phase for d, traced when tr
// is non-nil.
type measureFunc func(d time.Duration, tr *tracer, n *counts) (*phase, error)

// measureWorkload runs the measured phase. Untraced, it reports the
// end-to-end metrics. Traced, it splits the time between an untraced
// and a traced phase, checks that their deterministic counters agree,
// reports the per-layer metrics and writes the spans as JSONL.
func measureWorkload(cfg runConfig, rep *report, setupS float64, measure measureFunc) (*report, error) {
	if !cfg.trace {
		ph, err := measure(cfg.seconds, nil, nil)
		if err != nil {
			return nil, err
		}
		emitE2E(rep, ph, setupS)
		return rep, nil
	}
	plain, err := measure(cfg.seconds/2, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(spanKeep, "pagesvc.read", "wal.sync")
	n := &counts{}
	traced, err := measure(cfg.seconds/2, tr, n)
	if err != nil {
		return nil, err
	}
	if traced.first != plain.first {
		rep.fail("traced deterministic counters %+v differ from untraced %+v", traced.first, plain.first)
	}
	rep.attempted = plain.attempted + traced.attempted
	rep.failed = plain.failed + traced.failed
	emitLayers(rep, traced, plain, tr, n)
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	kept, dropped, err := tr.writeJSONL(path)
	if err != nil {
		return nil, err
	}
	rep.note("spans: %d written to %s, %d more aggregated only", kept, path, dropped)
	return rep, nil
}

// emitE2E reports the end-to-end metrics of an untraced phase.
func emitE2E(rep *report, ph *phase, setupS float64) {
	rep.attempted, rep.failed = ph.attempted, ph.failed
	objects := float64(ph.asm.Assembled)
	f := ph.first
	p50, p99 := ph.qlat.percentile(0.50), ph.qlat.percentile(0.99)
	rep.e2eMetric("objects_per_s", median(ph.rates), "1/s")
	rep.e2eMetric("query_p50_ms", ms(p50.Value), "ms")
	rep.e2eMetric("query_p99_ms", ms(p99.Value), "ms")
	rep.e2eMetric("success_frac", 1-ratio(float64(ph.failed), float64(ph.attempted)), "frac")
	rep.e2eMetric("avg_seek_pages", ratio(float64(f.Dev.SeekReads), float64(f.Dev.Reads)), "pages")
	rep.e2eMetric("reads_per_object", ratio(float64(f.Dev.Reads), float64(f.Asm.Assembled)), "reads")
	rep.e2eMetric("modeled_ms_per_op", ratio(ms(f.Dev.Modeled), float64(f.Ops)), "ms")
	rep.e2eMetric("allocs_per_object", ratio(float64(ph.allocs), objects), "count")
	rep.e2eMetric("bytes_per_object", ratio(float64(ph.bytes), objects), "B")
	rep.e2eMetric("live_heap_mb", ph.heapMB, "MB")
	rep.e2eMetric("setup_s", setupS, "s")

	rep.note("query latency: %d samples, %d beyond p99%s", p99.Samples, p99.Beyond, enough(p99))
	rep.note("failed_frac = %.6f (%d of %d operations failed, shed or timed out)",
		ratio(float64(ph.failed), float64(ph.attempted)), ph.failed, ph.attempted)
	if len(ph.wlat) > 0 {
		w50, w99 := ph.wlat.percentile(0.50), ph.wlat.percentile(0.99)
		rep.note("write_p50_ms = %.4f ms", ms(w50.Value))
		rep.note("write_p99_ms = %.4f ms (%d samples, %d beyond p99%s)", ms(w99.Value), w99.Samples, w99.Beyond, enough(w99))
	} else {
		rep.note("write_p50_ms, write_p99_ms: no writes in this workload")
	}
	if f.UserBytes > 0 {
		rep.note("write_amp = %.4f (device bytes written per encoded user byte, deterministic)",
			float64(f.Dev.Writes)*float64(pageSize)/float64(f.UserBytes))
	} else {
		rep.note("write_amp: no writes in this workload")
	}
	rep.note("deterministic slice: %+v", f)
	rep.note("measured: %d epochs, %d queries, %d write batches, %.3f s busy", ph.epochs, ph.queries, ph.batches, ph.busy.Seconds())
}

func enough(p pct) string {
	if p.Enough() {
		return ""
	}
	return fmt.Sprintf(" (fewer than %d: the percentile is not supported by the sample)", minBeyond)
}

// pageSize is the page size of every device the workloads build.
const pageSize = 1024

// emitLayers reports the per-layer metrics of a traced phase.
func emitLayers(rep *report, ph, plain *phase, tr *tracer, n *counts) {
	q := float64(ph.queries)
	ops := float64(ph.queries + ph.batches)
	objs := float64(ph.asm.Assembled)
	drain := tr.agg("assembly.drain")
	var sched time.Duration
	for _, name := range []string{"assembly.sched.add", "assembly.sched.next", "assembly.sched.take", "assembly.sched.batch"} {
		sched += tr.agg(name).Total
	}
	lk := tr.agg("object.lookup")
	rv := tr.agg("query.reveal")
	busy := tr.agg("disk.read").Total + tr.agg("disk.write").Total
	rpcs := tr.agg("pagesvc.read").Count + tr.agg("pagesvc.write").Count

	rep.layer("assembly.self_ms", ratio(ms(drain.Self), q), "ms")
	rep.layer("assembly.sched_ms", ratio(ms(sched), q), "ms")
	rep.layer("assembly.sched_calls", ratio(float64(n.schedCalls.Load()), q), "count")
	rep.layer("assembly.fetched_per_object", ratio(float64(ph.asm.Fetched), objs), "count")
	rep.layer("assembly.useful_fetch_frac", ratio(float64(ph.asm.Comps), float64(ph.asm.Fetched)), "frac")
	rep.layer("object.lookup_us", ratio(us(lk.Total), float64(lk.Count)), "us")
	rep.layer("object.lookups_per_object", ratio(float64(n.lookups.Load()), objs), "count")
	rep.layer("buffer.hit_frac", ratio(float64(ph.pool.Hits), float64(ph.pool.Hits+ph.pool.Faults)), "frac")
	rep.layer("buffer.faults", ratio(float64(ph.pool.Faults), ops), "count/op")
	rep.layer("buffer.evictions", ratio(float64(ph.pool.Evictions), ops), "count/op")
	rep.layer("buffer.flushes", ratio(float64(ph.pool.Flushes), ops), "count/op")
	rep.layer("disk.reads", ratio(float64(ph.dev.Reads), ops), "count/op")
	rep.layer("disk.writes", ratio(float64(ph.dev.Writes), ops), "count/op")
	rep.layer("disk.busy_ms", ratio(ms(busy), ops), "ms")
	rep.layer("disk.seek_pages", ratio(float64(ph.dev.SeekReads), float64(ph.dev.Reads)), "pages")
	rep.layer("query.reveal_us", ratio(us(rv.Total), float64(rv.Count)), "us")
	rep.layer("query.results_per_root", ratio(objs, float64(ph.roots)), "frac")
	rep.layer("pagesvc.rpcs", ratio(float64(rpcs), ops), "count/op")
	rep.layer("wal.appends", ratio(float64(n.walAppends.Load()), ops), "count/op")
	rep.layer("bench.trace_overhead_frac", ratio(ph.msPerObject(), plain.msPerObject())-1, "frac")
	rep.notes = append(rep.notes, fmt.Sprintf("traced phase: %d queries, %d write batches; untraced phase: %d queries, %d write batches",
		ph.queries, ph.batches, plain.queries, plain.batches))
	for _, m := range ph.extra {
		rep.note("layer %s = %.6g %s", m.Name, m.Value, m.Unit)
	}
}

// result is the last line of the output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable lines, then the result line: the
// end-to-end metrics untraced, the per-layer metrics traced.
func (r *report) print(w io.Writer, workload string, traced bool) error {
	ms := r.e2e
	if traced {
		ms = r.layers
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAIL %s\n", p)
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultItem{}}
	for _, m := range ms {
		fmt.Fprintf(w, "%s %-28s %14.6f %s\n", workload, m.Name, m.Value, m.Unit)
		res.Metrics[m.Name] = resultItem{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
