package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
)

func TestUnionLenOverlappingChildren(t *testing.T) {
	cases := []struct {
		name   string
		iv     []interval
		lo, hi int64
		want   int64
	}{
		{"none", nil, 0, 100, 0},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 0, 100, 20},
		{"overlapping lanes", []interval{{10, 50}, {20, 60}, {55, 70}}, 0, 100, 60},
		{"nested", []interval{{10, 90}, {20, 30}}, 0, 100, 80},
		{"touching", []interval{{10, 20}, {20, 30}}, 0, 100, 20},
		{"clipped to parent", []interval{{-10, 10}, {90, 120}}, 0, 100, 20},
		{"unsorted", []interval{{60, 70}, {10, 20}, {15, 25}}, 0, 100, 25},
	}
	for _, c := range cases {
		if got := unionLen(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("%s: unionLen = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanSelfTimeExcludesOverlappingChildren(t *testing.T) {
	tr := newTracer(100)
	parent := tr.root("parent", 7)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := tr.child(parent, "lane")
			time.Sleep(30 * time.Millisecond)
			c.end()
		}()
	}
	wg.Wait()
	parent.end()
	p := tr.agg("parent")
	lanes := tr.agg("lane")
	if p.Count != 1 || lanes.Count != 2 {
		t.Fatalf("counts: parent %d, lanes %d", p.Count, lanes.Count)
	}
	union := p.KidUnion["lane"]
	if union < 30*time.Millisecond || union > p.Total {
		t.Fatalf("lane union %v outside [30ms, parent %v]", union, p.Total)
	}
	if p.Self != p.Total-union {
		t.Fatalf("self %v, want total %v minus union %v", p.Self, p.Total, union)
	}
	// The lanes overlap, so their summed time exceeds the union.
	if lanes.Total <= union {
		t.Fatalf("lane total %v not above their union %v", lanes.Total, union)
	}
	for _, r := range tr.kept {
		if r.Name == "lane" && (r.QID != 7 || r.Parent != parent.id) {
			t.Fatalf("lane record %+v lost its query id or parent", r)
		}
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	var l latencies
	for i := 1000; i >= 1; i-- {
		l = append(l, time.Duration(i)*time.Millisecond)
	}
	p := l.percentile(0.99)
	if p.Value != 990*time.Millisecond || p.Samples != 1000 || p.Beyond != 10 || !p.Enough() {
		t.Fatalf("p99 of 1..1000ms = %+v", p)
	}
	if m := l.percentile(0.5); m.Value != 500*time.Millisecond || m.Beyond != 500 {
		t.Fatalf("p50 = %+v", m)
	}
	small := l[900:] // 100..1 ms
	if p := small.percentile(0.99); p.Value != 99*time.Millisecond || p.Beyond != 1 || p.Enough() {
		t.Fatalf("p99 of 100 samples = %+v, want 99ms with 1 beyond", p)
	}
	same := latencies{time.Second, time.Second, time.Second}
	if p := same.percentile(0.99); p.Beyond != 0 {
		t.Fatalf("ties counted beyond: %+v", p)
	}
	if p := (latencies{}).percentile(0.99); p != (pct{}) {
		t.Fatalf("empty sample: %+v", p)
	}
}

// ctxDevice records the context its ReadPageCtx received.
type ctxDevice struct {
	disk.Device
	got context.Context
}

func (d *ctxDevice) ReadPageCtx(ctx context.Context, p disk.PageID, buf []byte) error {
	d.got = ctx
	return d.Device.ReadPage(p, buf)
}

type ctxKey struct{}

func TestDeviceWrapperForwardsCtxReaderAndHead(t *testing.T) {
	sim := disk.New(0)
	if _, err := sim.Allocate(10); err != nil {
		t.Fatal(err)
	}
	inner := &ctxDevice{Device: sim}
	tr := newTracer(10)
	w := wrapDevice(inner, tr, nil, "disk")
	var dev disk.Device = w
	if _, ok := dev.(disk.CtxReader); !ok {
		t.Fatal("wrapped device is not a disk.CtxReader")
	}
	buf := make([]byte, sim.PageSize())
	ctx := context.WithValue(context.Background(), ctxKey{}, "query")
	if err := disk.ReadPageCtx(ctx, dev, 7, buf); err != nil {
		t.Fatal(err)
	}
	if inner.got == nil || inner.got.Value(ctxKey{}) != "query" {
		t.Fatal("ReadPageCtx did not pass the caller's context through")
	}
	if spanFrom(inner.got) == nil {
		t.Fatal("the read's span is not on the context passed down")
	}
	if dev.Head() != 7 || dev.Head() != sim.Head() {
		t.Fatalf("Head = %d, device head %d, want 7", dev.Head(), sim.Head())
	}
	if err := dev.WritePage(3, buf); err != nil {
		t.Fatal(err)
	}
	if w.reads.Load() != 1 || w.writes.Load() != 1 || sim.Stats().Reads != 1 || sim.Stats().Writes != 1 {
		t.Fatalf("counts: wrapper %d/%d, device %+v", w.reads.Load(), w.writes.Load(), sim.Stats())
	}
	if a := tr.agg("disk.read"); a.Count != 1 {
		t.Fatalf("disk.read spans = %d", a.Count)
	}
}

func refsOn(pages ...disk.PageID) []*assembly.Ref {
	var out []*assembly.Ref
	for i, p := range pages {
		out = append(out, &assembly.Ref{OID: object.OID(i + 1), RID: heap.RID{Page: p}})
	}
	return out
}

func TestSchedulerWrapperForwardsBatchScheduler(t *testing.T) {
	n := &counts{}
	tr := newTracer(10)
	plain := wrapScheduler(assembly.NewScheduler(assembly.Elevator), tr, nil, n)
	if _, ok := plain.(assembly.BatchScheduler); ok {
		t.Fatal("wrapping a plain scheduler produced a BatchScheduler")
	}
	shardOf := func(p disk.PageID) int { return int(p) % 3 }
	ref := assembly.NewShardElevator(3, shardOf)
	w := wrapScheduler(assembly.NewShardElevator(3, shardOf), tr, nil, n)
	b, ok := w.(assembly.BatchScheduler)
	if !ok {
		t.Fatal("wrapping a BatchScheduler lost the batch interface")
	}
	if b.Lanes() != ref.Lanes() || b.LaneOf(5) != ref.LaneOf(5) || b.Name() != ref.Name() {
		t.Fatal("Lanes, LaneOf or Name not forwarded")
	}
	pages := []disk.PageID{9, 4, 1, 7, 2, 8, 3}
	ref.Add(refsOn(pages...)...)
	b.Add(refsOn(pages...)...)
	var handed int64
	for {
		want, got := ref.NextBatch(0), b.NextBatch(0)
		if len(want) != len(got) {
			t.Fatalf("batch sizes %d vs %d", len(want), len(got))
		}
		for i := range want {
			if want[i].OID != got[i].OID {
				t.Fatalf("batch %v vs %v", want[i].OID, got[i].OID)
			}
		}
		handed += int64(len(got))
		if len(got) == 0 {
			break
		}
	}
	if handed != int64(len(pages)) || n.handed.Load() != handed {
		t.Fatalf("handed %d, counted %d, want %d", handed, n.handed.Load(), len(pages))
	}
	if a := tr.agg("assembly.sched.batch"); a.Count == 0 {
		t.Fatal("no batch spans recorded")
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json and the metrics
// the command prints in step.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	ph := &phase{}
	emitE2E(rep, ph, 1)
	emitLayers(rep, ph, ph, newTracer(0), &counts{})
	check := func(what string, listed []struct{ Name, Unit string }, printed []metric) {
		var a, b []string
		for _, m := range listed {
			a = append(a, m.Name+" "+m.Unit)
		}
		for _, m := range printed {
			b = append(b, m.Name+" "+m.Unit)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: BENCHMARK.json lists %v, the command prints %v", what, a, b)
		}
	}
	check("end_to_end", bj.EndToEnd, rep.e2e)
	check("per_layer", bj.PerLayer, rep.layers)
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(bj.Workloads), len(workloads))
	}
}

// runTwice measures a workload untraced and traced at a small size and
// returns both phases; the report must carry no failure.
func runTwice(t *testing.T, measure measureFunc, rep *report) (plain, traced *phase) {
	t.Helper()
	plain, err := measure(20*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err = measure(20*time.Millisecond, newTracer(1000), &counts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.problems) > 0 {
		t.Fatalf("problems: %v", rep.problems)
	}
	if plain.first != traced.first {
		t.Fatalf("traced counters %+v differ from untraced %+v", traced.first, plain.first)
	}
	if len(plain.rates) == 0 || median(plain.rates) <= 0 {
		t.Fatalf("no throughput measured: rates %v", plain.rates)
	}
	return plain, traced
}

// TestWorkloadsVerifiedAndDeterministic runs each workload small: every
// check must pass, the wrappers must change no deterministic counter,
// and a rebuild at the same seed must repeat them exactly.
func TestWorkloadsVerifiedAndDeterministic(t *testing.T) {
	const seed = 3
	t.Run("paper-cold", func(t *testing.T) {
		sz := paperSizes{Objects: 300, Frames: 32, Window: 20, Roots: 40, Queries: 3}
		var firsts []detCounts
		for i := 0; i < 2; i++ {
			env, err := buildPaper(sz, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := env.oracle(); err != nil {
				t.Fatal(err)
			}
			rep := &report{}
			plain, _ := runTwice(t, func(d time.Duration, tr *tracer, n *counts) (*phase, error) {
				return env.measure(d, tr, n, rep)
			}, rep)
			firsts = append(firsts, plain.first)
		}
		if firsts[0] != firsts[1] {
			t.Fatalf("same seed, different counters: %+v vs %+v", firsts[0], firsts[1])
		}
	})
	t.Run("fleet-serve", func(t *testing.T) {
		sz := fleetSizes{Objects: 300, Frames: 64, Window: 4, Roots: 10, Members: 3, Clients: 2, Sets: 8, RefQueries: 4, Warmup: 2}
		var firsts []detCounts
		for i := 0; i < 2; i++ {
			env, err := buildFleet(sz, seed, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := env.oracle()
			if err != nil {
				env.close()
				t.Fatal(err)
			}
			env.want = want
			rep := &report{}
			plain, _ := runTwice(t, func(d time.Duration, tr *tracer, n *counts) (*phase, error) {
				if tr == nil {
					return env.measure(d, 200, rep)
				}
				te, err := buildFleet(sz, seed, tr, n)
				if err != nil {
					return nil, err
				}
				defer te.close()
				te.want = want
				return te.measure(d, 200, rep)
			}, rep)
			env.close()
			firsts = append(firsts, plain.first)
		}
		if firsts[0] != firsts[1] {
			t.Fatalf("same seed, different counters: %+v vs %+v", firsts[0], firsts[1])
		}
	})
	t.Run("update-mix", func(t *testing.T) {
		sz := updateSizes{Objects: 200, Window: 5, Roots: 10, Cycles: 6, Reads: 2, Updates: 4, Appends: 1, Recent: 4}
		var firsts []detCounts
		for i := 0; i < 2; i++ {
			env, err := buildUpdate(sz, seed)
			if err != nil {
				t.Fatal(err)
			}
			rep := &report{}
			plain, _ := runTwice(t, func(d time.Duration, tr *tracer, n *counts) (*phase, error) {
				return env.measure(d, tr, n, rep)
			}, rep)
			if plain.first.UserBytes == 0 || plain.first.Dev.Writes == 0 {
				t.Fatalf("no writes measured: %+v", plain.first)
			}
			firsts = append(firsts, plain.first)
		}
		if firsts[0] != firsts[1] {
			t.Fatalf("same seed, different counters: %+v vs %+v", firsts[0], firsts[1])
		}
	})
}

// TestOpenLoopReportsEveryMismatch runs the open loop against a wrong
// oracle with two clients: every checked query must leave its own FAIL
// line, so concurrent failures are neither lost nor raced (run it with
// -race).
func TestOpenLoopReportsEveryMismatch(t *testing.T) {
	sz := fleetSizes{Objects: 300, Frames: 64, Window: 4, Roots: 10, Members: 3, Clients: 2, Sets: 8, RefQueries: 4, Warmup: 2}
	env, err := buildFleet(sz, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	want, err := env.oracle()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i].Sum++
	}
	env.want = want
	rep := &report{}
	ph := &phase{}
	if _, _, err := env.openLoop(200*time.Millisecond, 400, ph, rep); err != nil {
		t.Fatal(err)
	}
	if ph.queries < 2 || int64(len(rep.problems)) != ph.queries {
		t.Fatalf("%d queries checked, %d failures reported", ph.queries, len(rep.problems))
	}
}
