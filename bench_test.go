package revelation_test

// One testing.B benchmark per reproduced table/figure of the paper's
// Section 6 (plus this reproduction's ablations). Each iteration runs
// the figure's full experiment grid at a reduced scale (benchScale) so
// `go test -bench=.` stays responsive; the custom metrics report the
// paper's numbers for the headline cell of each figure. Paper-scale
// tables print via `go run ./cmd/asmbench -figure all`.

import (
	"strings"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/bench"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/volcano"
)

// benchScale shrinks the paper's 1000–4000 complex-object databases to
// 250–1000 for iteration speed; shapes are scale-invariant.
const benchScale = 0.25

func reportFigure(b *testing.B, fig bench.Figure) {
	b.Helper()
	// Headline: the final x of the first and last series.
	for _, s := range []bench.Series{fig.Series[0], fig.Series[len(fig.Series)-1]} {
		if len(s.Y) > 0 {
			unit := strings.ReplaceAll(s.Label, " ", "-") + "_seek/read"
			b.ReportMetric(s.Y[len(s.Y)-1], unit)
		}
	}
}

func BenchmarkFig11A(b *testing.B) { benchScheduling(b, 1, 'a') }
func BenchmarkFig11B(b *testing.B) { benchScheduling(b, 1, 'b') }
func BenchmarkFig11C(b *testing.B) { benchScheduling(b, 1, 'c') }
func BenchmarkFig13A(b *testing.B) { benchScheduling(b, 50, 'a') }
func BenchmarkFig13B(b *testing.B) { benchScheduling(b, 50, 'b') }
func BenchmarkFig13C(b *testing.B) { benchScheduling(b, 50, 'c') }

func benchScheduling(b *testing.B, window int, sub byte) {
	b.Helper()
	r := bench.NewRunner()
	b.ResetTimer()
	var fig bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = r.FigScheduling(window, sub, benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig)
}

func BenchmarkFig14(b *testing.B) {
	r := bench.NewRunner()
	b.ResetTimer()
	var fig bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = r.Fig14(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig)
}

func BenchmarkFig15(b *testing.B) {
	r := bench.NewRunner()
	b.ResetTimer()
	var fig bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = r.Fig15(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig)
}

func BenchmarkFig16(b *testing.B) {
	r := bench.NewRunner()
	b.ResetTimer()
	var fig bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = r.Fig16(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig)
}

func BenchmarkWindowFootprint(b *testing.B) {
	r := bench.NewRunner()
	b.ResetTimer()
	var fig bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = r.WindowFootprint(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Measured peak at the largest window vs the paper's bound.
	m := fig.Series[0]
	b.ReportMetric(m.Y[len(m.Y)-1], "peak_window_pages")
	bd := fig.Series[1]
	b.ReportMetric(bd.Y[len(bd.Y)-1], "paper_bound_pages")
}

func BenchmarkBufferWindow(b *testing.B) {
	r := bench.NewRunner()
	b.ResetTimer()
	var fig bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = r.BufferWindow(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig)
}

// BenchmarkMultiDevice runs the Section 7 striped-device exploration.
func BenchmarkMultiDevice(b *testing.B) {
	r := bench.NewRunner()
	b.ResetTimer()
	var fig bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = r.MultiDevice(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig)
}

// BenchmarkPageBatch runs the Section 4 same-page batching ablation.
func BenchmarkPageBatch(b *testing.B) {
	r := bench.NewRunner()
	b.ResetTimer()
	var fig bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = r.PageBatch(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Requests per 1000 fetches, batched, intra-object clustering.
	s := fig.Series[len(fig.Series)-1]
	b.ReportMetric(s.Y[len(s.Y)-1], "batched_reqs_per_1k")
}

// BenchmarkPriorityScheduler isolates the Section 7 integrated
// (predicate-first) scheduler against the plain elevator on a
// selective query.
func BenchmarkPriorityScheduler(b *testing.B) {
	r := bench.NewRunner()
	base := bench.Experiment{
		Name:        "priority",
		DBSize:      1000,
		Clustering:  gen.Unclustered,
		Scheduler:   assembly.Elevator,
		Window:      50,
		Selectivity: 0.10,
		BufferPages: 96,
		Seed:        17,
	}
	var plain, prio bench.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain, err = r.Run(base)
		if err != nil {
			b.Fatal(err)
		}
		withPrio := base
		withPrio.PredicateFirst = true
		prio, err = r.Run(withPrio)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plain.Stats.Fetched), "plain_fetches")
	b.ReportMetric(float64(prio.Stats.Fetched), "predfirst_fetches")
}

// BenchmarkAssemblyVsPointerJoin compares the assembly operator to the
// related-work baseline: a pointer join per reference level (naive and
// TID-sorted), assembling two-level complex objects.
func BenchmarkAssemblyVsPointerJoin(b *testing.B) {
	db, err := gen.Build(gen.Config{NumComplexObjects: 1000, Clustering: gen.Unclustered, Seed: 23})
	if err != nil {
		b.Fatal(err)
	}
	roots := make([]volcano.Item, len(db.Roots))
	for i, r := range db.Roots {
		roots[i] = r
	}
	// Two-level template: root + its two children.
	tmpl := db.Template.Clone()
	tmpl.Children[0].Children = nil
	tmpl.Children[1].Children = nil

	// cold empties the pool, parks the head, and returns the device
	// counters the pass is measured against.
	cold := func() disk.Stats {
		if err := db.Pool.EvictAll(); err != nil {
			b.Fatal(err)
		}
		db.Device.ResetHead()
		return db.Device.Stats()
	}
	var asmSeek, naiveSeek, sortedSeek float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev0 := cold()
		op := assembly.New(volcano.NewSlice(roots), db.Store, tmpl,
			assembly.Options{Window: 50, Scheduler: assembly.Elevator})
		if _, err := volcano.Count(op); err != nil {
			b.Fatal(err)
		}
		asmSeek = db.Device.Stats().Sub(dev0).AvgSeekPerRead()

		for _, mode := range []volcano.PointerJoinMode{volcano.NaivePointer, volcano.SortedPointer} {
			dev0 := cold()
			// Join root objects to child 0, then parents to child 1 —
			// the n-way pointer join the paper contrasts with
			// assembly (Section 4: "a pointer join would require at
			// least one input to be completely scanned before
			// producing a single result").
			var rootObjs []volcano.Item
			for _, r := range db.Roots {
				o, err := db.Store.Get(r)
				if err != nil {
					b.Fatal(err)
				}
				rootObjs = append(rootObjs, o)
			}
			j0 := volcano.NewPointerJoin(volcano.NewSlice(rootObjs), db.Store, 0, mode)
			left, err := volcano.Drain(j0)
			if err != nil {
				b.Fatal(err)
			}
			var parents []volcano.Item
			for _, p := range left {
				parents = append(parents, p.(volcano.Pair).Left)
			}
			j1 := volcano.NewPointerJoin(volcano.NewSlice(parents), db.Store, 1, mode)
			if _, err := volcano.Count(j1); err != nil {
				b.Fatal(err)
			}
			if mode == volcano.NaivePointer {
				naiveSeek = db.Device.Stats().Sub(dev0).AvgSeekPerRead()
			} else {
				sortedSeek = db.Device.Stats().Sub(dev0).AvgSeekPerRead()
			}
		}
	}
	b.ReportMetric(asmSeek, "assembly_seek/read")
	b.ReportMetric(naiveSeek, "naive_ptrjoin_seek/read")
	b.ReportMetric(sortedSeek, "sorted_ptrjoin_seek/read")
}
