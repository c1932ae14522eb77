package bench

import (
	"fmt"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/gen"
	"revelation/internal/metrics"
	"revelation/internal/trace"
)

// TestThreeWayAgreement is the subsystem's capstone invariant: for a
// traced, metered run, three independent accountings must agree exactly
// — the harness counters (Result / the end-of-run marker), the trace
// replay reconstruction, and the metrics registry's snapshot delta.
// The trace-vs-harness leg is Run.Verify; this test adds the registry
// leg by rebuilding the run's RunStats from registry deltas.
func TestThreeWayAgreement(t *testing.T) {
	col := trace.NewCollector()
	reg := metrics.NewRegistry()
	r := NewRunner()
	r.Tracer = trace.New(col)
	r.Metrics = reg

	e := Experiment{
		Name:       "threeway",
		DBSize:     120,
		Clustering: gen.Unclustered,
		Scheduler:  assembly.Elevator,
		Window:     20,
		Seed:       benchSeed,
	}
	// A first run builds and registers the database, so the second run's
	// registry delta covers exactly that run (the build I/O and the
	// first run's activity land before the `before` snapshot, and
	// nothing is dirty in the pool when the second run starts cold).
	if _, err := r.Run(e); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	res, err := r.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	d := reg.Snapshot().Delta(before)

	// Leg 1: trace replay == harness-reported counters.
	runs := trace.SplitRuns(col.Events())
	if len(runs) != 2 {
		t.Fatalf("trace has %d runs, want 2", len(runs))
	}
	run := runs[1]
	if run.Reported == nil {
		t.Fatal("second run has no end marker")
	}
	if _, err := run.Verify(); err != nil {
		t.Fatalf("trace replay disagrees with harness: %v", err)
	}

	// Leg 2: registry delta == harness-reported counters.
	devLabel := fmt.Sprintf("db%d-%s", e.DBSize, e.Clustering)
	policy := e.Scheduler.String()
	fromRegistry := trace.RunStats{
		Reads:     d.Value("asm_disk_reads_total", "dev", devLabel),
		SeekReads: d.Value("asm_disk_read_seek_pages_total", "dev", devLabel),
		SeekTotal: d.Value("asm_disk_seek_pages_total", "dev", devLabel),
		Assembled: int(d.Value("asm_assembly_assembled_total", "policy", policy)),
		Aborted:   int(d.Value("asm_assembly_aborted_total", "policy", policy)),
		Skipped:   int(d.Value("asm_assembly_skipped_total", "policy", policy)),
		Retries:   int(d.Value("asm_assembly_fault_retries_total", "policy", policy)),
		Stalls:    int(d.Value("asm_assembly_window_stalls_total", "policy", policy)),
	}
	if fromRegistry != *run.Reported {
		t.Errorf("registry delta disagrees with harness:\nregistry %+v\nharness  %+v",
			fromRegistry, *run.Reported)
	}

	// And the harness result itself must match both (spot checks; the
	// RunStats equality above covers the rest).
	if res.Reads != fromRegistry.Reads {
		t.Errorf("result reads %d != registry reads %d", res.Reads, fromRegistry.Reads)
	}
	if res.Stats.Assembled != fromRegistry.Assembled {
		t.Errorf("result assembled %d != registry assembled %d", res.Stats.Assembled, fromRegistry.Assembled)
	}
	// Buffer accounting: pool hits+misses deltas must match the result.
	hits := d.Value("asm_buffer_hits_total", "pool", devLabel)
	misses := d.Value("asm_buffer_misses_total", "pool", devLabel)
	if hits != res.BufferHits || misses != res.BufferFaults {
		t.Errorf("registry pool hits/misses %d/%d != result %d/%d",
			hits, misses, res.BufferHits, res.BufferFaults)
	}
}

// TestThreeWayAgreementFaults extends the invariant to the faulty
// sweep: FigFaults brackets each sweep point with the shared
// measurement core (no counter resets, end markers derived from device
// deltas), so verifying every traced run against its replay closes the
// triangle; TestFigureRunScrapeConsistent adds the registry leg.
func TestThreeWayAgreementFaults(t *testing.T) {
	col := trace.NewCollector()
	r := NewRunner()
	r.Tracer = trace.New(col)
	r.Metrics = metrics.NewRegistry()

	fig, err := r.FigFaults(0.1, DefaultFaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) == 0 {
		t.Fatal("faults figure has no series")
	}
	runs := trace.SplitRuns(col.Events())
	verified := 0
	for _, run := range runs {
		if run.Reported == nil {
			t.Errorf("run %q has no end marker", run.Name)
			continue
		}
		if _, err := run.Verify(); err != nil {
			t.Errorf("run %q: %v", run.Name, err)
			continue
		}
		verified++
	}
	if verified < 8 { // two policies x four sweep points
		t.Errorf("verified %d runs, want at least 8", verified)
	}
}

// TestFigureRunScrapeConsistent pins the scraper-facing contract of a
// figure run: counters are never reset mid-sweep, so a concurrent
// scraper sees every registered family stay monotone, and the sweep's
// total registry delta equals the sum of the per-run reported deltas —
// no run's activity is double-counted or dropped between brackets.
func TestFigureRunScrapeConsistent(t *testing.T) {
	col := trace.NewCollector()
	reg := metrics.NewRegistry()
	r := NewRunner()
	r.Tracer = trace.New(col)
	r.Metrics = reg

	before := reg.Snapshot()
	if _, err := r.FigFaults(0.1, DefaultFaultOptions); err != nil {
		t.Fatal(err)
	}
	d := reg.Snapshot().Delta(before)

	// Monotone: every family's delta over the sweep is non-negative.
	for _, fam := range []struct{ name, k, v string }{
		{"asm_disk_reads_total", "dev", "faults"},
		{"asm_disk_read_seek_pages_total", "dev", "faults"},
		{"asm_disk_seek_pages_total", "dev", "faults"},
		{"asm_buffer_hits_total", "pool", "faults"},
		{"asm_buffer_misses_total", "pool", "faults"},
	} {
		if got := d.Value(fam.name, fam.k, fam.v); got < 0 {
			t.Errorf("%s{%s=%q} went backwards over the sweep: delta %d", fam.name, fam.k, fam.v, got)
		}
	}

	// The registered device counters are never reset, so the series
	// start out holding the database load's reads. gen.Build is
	// deterministic: an identical build measures that load exactly.
	load, err := gen.Build(faultsDBConfig(0.1))
	if err != nil {
		t.Fatal(err)
	}
	loadReads := load.Device.Stats().Reads

	// Load reads + sum of per-run reported reads == the registry's
	// total delta: the measurement brackets partition the sweep's read
	// activity exactly (pool evictions between points write back dirty
	// pages but never read, so no I/O falls outside a bracket).
	var reported int64
	for _, run := range trace.SplitRuns(col.Events()) {
		if run.Reported == nil {
			t.Fatalf("run %q has no end marker", run.Name)
		}
		reported += run.Reported.Reads
	}
	if got := d.Value("asm_disk_reads_total", "dev", "faults"); got != loadReads+reported {
		t.Errorf("registry reads delta %d != load reads %d + sum of per-run reported reads %d", got, loadReads, reported)
	}
}
