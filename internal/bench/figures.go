package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/volcano"
)

// Series is one labelled line of a figure. The JSON tags define the
// asmbench -json schema; field order is the struct order and is part of
// the golden-tested contract — append new fields at the end.
type Series struct {
	Label string    `json:"label"`
	X     []float64 `json:"x"`
	Y     []float64 `json:"y"`
	// Extra carries a secondary metric per point (e.g. total reads)
	// when a figure's discussion references one; may be nil.
	Extra []float64 `json:"extra,omitempty"`
}

// Figure is a reproduced paper figure: a set of series over a shared
// x-axis.
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"x_label"`
	YLabel string   `json:"y_label"`
	Series []Series `json:"series"`
	Notes  []string `json:"notes,omitempty"`
}

// Table renders the figure as an aligned text table (x down the rows,
// one column per series).
func (f Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%22s", s.Label)
	}
	b.WriteString("\n")
	if len(f.Series) > 0 {
		for i := range f.Series[0].X {
			fmt.Fprintf(&b, "%-14.0f", f.Series[0].X[i])
			for _, s := range f.Series {
				if i < len(s.Y) {
					fmt.Fprintf(&b, "%22.1f", s.Y[i])
				} else {
					fmt.Fprintf(&b, "%22s", "-")
				}
			}
			b.WriteString("\n")
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	fmt.Fprintf(&b, "  (y: %s)\n", f.YLabel)
	return b.String()
}

// FiguresJSON renders figures as deterministic, indented JSON: field
// order follows the struct declarations and a seeded run produces the
// same bytes every time, which is what the golden-file test pins down.
func FiguresJSON(figs []Figure) ([]byte, error) {
	out, err := json.MarshalIndent(figs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Scale shrinks database sizes for quick runs; 1.0 is paper scale.
// Sizes never drop below 50 complex objects.
func scaled(size int, scale float64) int {
	n := int(float64(size) * scale)
	if n < 50 {
		n = 50
	}
	return n
}

var paperSizes = []int{1000, 2000, 3000, 4000}

const benchSeed = 91 // fixed seed: the experiments are deterministic

// clusteringName maps figure suffixes.
func clusteringFor(sub byte) (gen.Clustering, string) {
	switch sub {
	case 'a':
		return gen.InterObject, "Inter-Object Clustering"
	case 'b':
		return gen.IntraObject, "Intra-Object Clustering"
	default:
		return gen.Unclustered, "Unclustered"
	}
}

// FigScheduling reproduces Figures 11(A–C) and 13(A–C): scheduling
// algorithm versus database size at a fixed window size (1 for Fig.
// 11, 50 for Fig. 13), under the clustering policy selected by sub
// ('a' = inter-object, 'b' = intra-object, 'c' = unclustered).
func (r *Runner) FigScheduling(window int, sub byte, scale float64) (Figure, error) {
	clustering, cname := clusteringFor(sub)
	figNum := "11"
	if window > 1 {
		figNum = "13"
	}
	fig := Figure{
		ID:     fmt.Sprintf("fig%s%c", figNum, sub),
		Title:  fmt.Sprintf("Window Size = %d, %s", window, cname),
		XLabel: "complex objs",
		YLabel: "average seek distance per read (pages)",
	}
	for _, sched := range []assembly.SchedulerKind{assembly.BreadthFirst, assembly.DepthFirst, assembly.Elevator} {
		s := Series{Label: sched.String()}
		for _, size := range paperSizes {
			res, err := r.Run(Experiment{
				Name:       fig.ID,
				DBSize:     scaled(size, scale),
				Clustering: clustering,
				Scheduler:  sched,
				Window:     window,
				Seed:       benchSeed,
			})
			if err != nil {
				return Figure{}, err
			}
			s.X = append(s.X, float64(scaled(size, scale)))
			s.Y = append(s.Y, res.AvgSeek)
			s.Extra = append(s.Extra, float64(res.Reads))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig14 reproduces Figure 14: window size versus average seek distance
// with elevator scheduling at the largest database size, one series
// per clustering policy.
func (r *Runner) Fig14(scale float64) (Figure, error) {
	fig := Figure{
		ID:     "fig14",
		Title:  "Database Size = 4000, Elevator Scheduling",
		XLabel: "window size",
		YLabel: "average seek distance per read (pages)",
	}
	windows := []int{1, 50, 100, 150, 200}
	size := scaled(4000, scale)
	for _, cl := range []gen.Clustering{gen.InterObject, gen.IntraObject, gen.Unclustered} {
		s := Series{Label: cl.String()}
		for _, w := range windows {
			res, err := r.Run(Experiment{
				Name:       "fig14",
				DBSize:     size,
				Clustering: cl,
				Scheduler:  assembly.Elevator,
				Window:     w,
				Seed:       benchSeed,
			})
			if err != nil {
				return Figure{}, err
			}
			s.X = append(s.X, float64(w))
			s.Y = append(s.Y, res.AvgSeek)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig15 reproduces Figure 15: databases containing shared sub-objects
// (degree 0.25, inter-object clustering): depth-first object-at-a-time
// versus elevator with windows of 1 and 50 using the sharing
// statistics. The Extra channel carries total reads, since the paper
// notes sharing statistics also "reduce the total number of reads".
func (r *Runner) Fig15(scale float64) (Figure, error) {
	fig := Figure{
		ID:     "fig15",
		Title:  "Degree of Sharing = 25%",
		XLabel: "complex objs",
		YLabel: "average seek distance per read (pages)",
		Notes:  []string{"elevator series use sharing statistics; depth-first is object-at-a-time"},
	}
	// A realistic (restricted) buffer: with a pool big enough to hold
	// the whole database, shared pages never leave memory and the
	// sharing statistics would have nothing to save — the paper's
	// claim is precisely about preventing shared objects from being
	// flushed.
	bufPages := scaled(256, scale)
	fig.Notes = append(fig.Notes, fmt.Sprintf("buffer restricted to %d pages", bufPages))
	type cfg struct {
		label  string
		sched  assembly.SchedulerKind
		window int
		stats  bool
	}
	for _, c := range []cfg{
		{"depth-first", assembly.DepthFirst, 1, false},
		{"elevator w=1", assembly.Elevator, 1, true},
		{"elevator w=50", assembly.Elevator, 50, true},
	} {
		s := Series{Label: c.label}
		for _, size := range paperSizes {
			res, err := r.Run(Experiment{
				Name:            "fig15",
				DBSize:          scaled(size, scale),
				Clustering:      gen.InterObject,
				Scheduler:       c.sched,
				Window:          c.window,
				Sharing:         0.25,
				UseSharingStats: c.stats,
				BufferPages:     bufPages,
				Seed:            benchSeed,
			})
			if err != nil {
				return Figure{}, err
			}
			s.X = append(s.X, float64(scaled(size, scale)))
			s.Y = append(s.Y, res.AvgSeek)
			s.Extra = append(s.Extra, float64(res.Reads))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig16 reproduces Figure 16: predicates and selectivities. A
// predicate with the given selectivity sits on a leaf component;
// selective assembly aborts failing complex objects as early as
// possible and fetches predicate-relevant components first.
func (r *Runner) Fig16(scale float64) (Figure, error) {
	fig := Figure{
		ID:     "fig16",
		Title:  "Predicates and Selectivities (DB = 4000, unclustered)",
		XLabel: "selectivity %",
		YLabel: "average seek distance per read (pages)",
	}
	size := scaled(4000, scale)
	sels := []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50}
	// Restricted buffer, as for Fig. 15: a whole-database pool would
	// absorb the saved fetches as buffer hits and hide the effect.
	bufPages := scaled(320, scale)
	fig.Notes = append(fig.Notes, fmt.Sprintf("buffer restricted to %d pages", bufPages))
	type cfg struct {
		label     string
		sched     assembly.SchedulerKind
		window    int
		predFirst bool
	}
	for _, c := range []cfg{
		{"object-at-a-time", assembly.DepthFirst, 1, false},
		{"elevator w=1", assembly.Elevator, 1, true},
		{"elevator w=50", assembly.Elevator, 50, true},
	} {
		s := Series{Label: c.label}
		for _, sel := range sels {
			res, err := r.Run(Experiment{
				Name:           "fig16",
				DBSize:         size,
				Clustering:     gen.Unclustered,
				Scheduler:      c.sched,
				Window:         c.window,
				Selectivity:    sel,
				PredicateFirst: c.predFirst,
				BufferPages:    bufPages,
				Seed:           benchSeed,
			})
			if err != nil {
				return Figure{}, err
			}
			s.X = append(s.X, sel*100)
			s.Y = append(s.Y, res.AvgSeek)
			s.Extra = append(s.Extra, float64(res.Reads))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// WindowFootprint reproduces the Section 6.3.3 buffer-requirement
// calculation: the peak number of distinct pages backing the window,
// against the paper's bound 6·(W−1) + 7.
func (r *Runner) WindowFootprint(scale float64) (Figure, error) {
	fig := Figure{
		ID:     "footprint",
		Title:  "Window buffer footprint (Section 6.3.3)",
		XLabel: "window size",
		YLabel: "pages",
	}
	size := scaled(2000, scale)
	windows := []int{1, 10, 50, 100}
	measured := Series{Label: "measured peak"}
	bound := Series{Label: "paper bound 6(W-1)+7"}
	for _, w := range windows {
		res, err := r.Run(Experiment{
			Name:       "footprint",
			DBSize:     size,
			Clustering: gen.Unclustered,
			Scheduler:  assembly.Elevator,
			Window:     w,
			Seed:       benchSeed,
		})
		if err != nil {
			return Figure{}, err
		}
		measured.X = append(measured.X, float64(w))
		measured.Y = append(measured.Y, float64(res.Stats.PeakWindowPgs))
		bound.X = append(bound.X, float64(w))
		bound.Y = append(bound.Y, float64(6*(w-1)+7))
	}
	fig.Series = []Series{measured, bound}
	return fig, nil
}

// BufferWindow is the Section 7 ablation the paper leaves as future
// work: restricted buffer sizes versus window sizes (unclustered,
// fixed database). Series are buffer sizes; x is window size; y is
// average seek distance (re-reads included).
func (r *Runner) BufferWindow(scale float64) (Figure, error) {
	fig := Figure{
		ID:     "buffer-window",
		Title:  "Restricted buffer size vs window size (Section 7 ablation)",
		XLabel: "window size",
		YLabel: "total seek distance (thousands of pages; re-reads included)",
		Notes: []string{
			"a window too large for its buffer evicts and re-reads pages; " +
				"average seek per read would hide that, so this ablation reports totals",
		},
	}
	size := scaled(2000, scale)
	for _, bufPages := range []int{64, 128, 256, 512} {
		s := Series{Label: fmt.Sprintf("buffer=%d", bufPages)}
		for _, w := range []int{1, 25, 50, 100} {
			res, err := r.Run(Experiment{
				Name:        "buffer-window",
				DBSize:      size,
				Clustering:  gen.Unclustered,
				Scheduler:   assembly.Elevator,
				Window:      w,
				BufferPages: bufPages,
				PinWindow:   true,
				Seed:        benchSeed,
			})
			if err != nil {
				return Figure{}, err
			}
			s.X = append(s.X, float64(w))
			s.Y = append(s.Y, float64(res.SeekTotal)/1000)
			s.Extra = append(s.Extra, float64(res.Reads))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// MultiDevice is the Section 7 multi-device exploration: the same
// unclustered database striped across 1, 2, 4, and 8 devices, assembled
// with the global elevator and with the per-device multi-elevator.
// y is the aggregate seek across all arms per read; the point of the
// table is that striping divides each arm's travel (arms only cover
// their own stripes) and the per-device scheduler keeps totals at the
// global elevator's level while giving every arm its own queue.
func (r *Runner) MultiDevice(scale float64) (Figure, error) {
	fig := Figure{
		ID:     "multi-device",
		Title:  "Striped devices (Section 7): global vs per-device elevator",
		XLabel: "devices",
		YLabel: "aggregate average seek distance per read (pages)",
	}
	size := scaled(2000, scale)
	type variant struct {
		label string
		multi bool
	}
	for _, v := range []variant{{"global elevator", false}, {"multi-elevator", true}} {
		s := Series{Label: v.label}
		for _, n := range []int{1, 2, 4, 8} {
			var devs []disk.Device
			for i := 0; i < n; i++ {
				devs = append(devs, disk.New(0))
			}
			striped, err := disk.NewStriped(devs, 8)
			if err != nil {
				return Figure{}, err
			}
			db, err := gen.Build(gen.Config{
				NumComplexObjects: size,
				Clustering:        gen.Unclustered,
				Seed:              benchSeed,
				Device:            striped,
			})
			if err != nil {
				return Figure{}, err
			}
			items := make([]volcano.Item, len(db.Roots))
			for i, root := range db.Roots {
				items[i] = root
			}
			opts := assembly.Options{Window: 50, Scheduler: assembly.Elevator, Tracer: r.Tracer}
			if v.multi {
				opts.CustomScheduler = assembly.NewMultiElevator(n, striped.DeviceOf)
			}
			m, err := StartMeasurement(fmt.Sprintf("multi-device/%s/n%d", v.label, n), 50, striped, db.Pool, r.Tracer)
			if err != nil {
				return Figure{}, err
			}
			op := assembly.New(volcano.NewSlice(items), db.Store, db.Template, opts)
			if _, err := volcano.Count(op); err != nil {
				m.Abort()
				return Figure{}, err
			}
			st := m.End(op.Stats()).Dev
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, st.AvgSeekPerRead())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// PageBatch is the Section 4 single-buffer-request ablation: buffer
// requests issued by the assembly operator with and without same-page
// batching, per clustering policy. The paper's footnote 5 is the
// motivation: "even buffer hits can be expensive, since a table must
// be searched while protected against concurrent update".
func (r *Runner) PageBatch(scale float64) (Figure, error) {
	fig := Figure{
		ID:     "page-batch",
		Title:  "Same-page batching (Section 4): buffer requests per 1000 objects",
		XLabel: "clustering",
		YLabel: "buffer requests per 1000 objects fetched",
		Notes:  []string{"x: 0 = unclustered, 1 = inter-object, 2 = intra-object"},
	}
	size := scaled(2000, scale)
	for _, batched := range []bool{false, true} {
		label := "per-reference requests"
		if batched {
			label = "page-batched requests"
		}
		s := Series{Label: label}
		for i, cl := range []gen.Clustering{gen.Unclustered, gen.InterObject, gen.IntraObject} {
			res, err := r.Run(Experiment{
				Name:       "page-batch",
				DBSize:     size,
				Clustering: cl,
				Scheduler:  assembly.Elevator,
				Window:     50,
				PageBatch:  batched,
				Seed:       benchSeed,
			})
			if err != nil {
				return Figure{}, err
			}
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, 1000*float64(res.Stats.PageRequests)/float64(res.Stats.Fetched))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// FaultOptions parameterises the fault-tolerance sweep.
type FaultOptions struct {
	// Seed drives the deterministic injector.
	Seed int64
	// Transient is the sweep's maximum transient-fault rate (fraction
	// of page reads); points run at 0, ¼, ½, and 1 times it.
	Transient float64
	// Permanent is the maximum permanent-fault rate, swept in the same
	// proportions.
	Permanent float64
}

// DefaultFaultOptions is the sweep cmd/asmbench runs when no fault
// flags are given: up to 10% transient and 0.5% permanent faults.
var DefaultFaultOptions = FaultOptions{Seed: benchSeed, Transient: 0.10, Permanent: 0.005}

// faultsDBConfig is the database FigFaults assembles: unclustered, on
// a fresh fault injector over a simulated disk.
func faultsDBConfig(scale float64) gen.Config {
	return gen.Config{
		NumComplexObjects: scaled(1000, scale),
		Clustering:        gen.Unclustered,
		Seed:              benchSeed,
		Device:            disk.NewFaulty(disk.New(0), disk.FaultConfig{}),
	}
}

// FigFaults is the robustness extension (no paper counterpart): the
// same database assembled under increasing fault rates, once per fault
// policy. y is the fraction of complex objects assembled; Extra
// carries the operator's transient-fault retries (retry series) and
// quarantined objects (skip series). The point of the table: retrying
// holds the loss to the permanently poisoned objects, while
// skip-on-first-fault loses every object a transient blip touches.
func (r *Runner) FigFaults(scale float64, opts FaultOptions) (Figure, error) {
	if opts.Transient < 0 {
		opts.Transient = 0
	}
	if opts.Permanent < 0 {
		opts.Permanent = 0
	}
	if opts.Transient == 0 && opts.Permanent == 0 {
		opts = FaultOptions{Seed: opts.Seed, Transient: DefaultFaultOptions.Transient, Permanent: DefaultFaultOptions.Permanent}
	}
	fig := Figure{
		ID:     "faults",
		Title:  "Fault injection vs assembly completion (robustness extension)",
		XLabel: "transient %",
		YLabel: "complex objects assembled (%)",
		Notes: []string{
			fmt.Sprintf("permanent-fault rate swept proportionally up to %.2f%%; injector seed %d", 100*opts.Permanent, opts.Seed),
			"extra channel: operator fault retries (retry series), quarantined objects (skip series)",
		},
	}
	cfg := faultsDBConfig(scale)
	fd := cfg.Device.(*disk.Faulty)
	db, err := gen.Build(cfg)
	if err != nil {
		return Figure{}, err
	}
	// The sweep's counters are never reset; each point reports the
	// delta between snapshots (the shared measurement core), so a
	// concurrent scraper sees the registered families stay monotone
	// across the whole sweep.
	if r.Metrics != nil {
		fd.RegisterMetrics(r.Metrics, "faults")
		db.Pool.RegisterMetrics(r.Metrics, "faults")
	}
	items := make([]volcano.Item, len(db.Roots))
	for i, root := range db.Roots {
		items[i] = root
	}
	fractions := []float64{0, 0.25, 0.5, 1}
	type policy struct {
		label string
		fp    assembly.FaultPolicy
	}
	for _, p := range []policy{{"retry", assembly.RetryFaults}, {"skip-object", assembly.SkipObject}} {
		s := Series{Label: p.label}
		for _, f := range fractions {
			// Per-point cold start: injector re-armed, then the shared
			// measurement bracket (evict, snapshot, park head) so the
			// previous point's dirty write-backs are excluded from this
			// point's delta. Re-arming first is safe: write-backs are
			// never faulted.
			fd.SetConfig(disk.FaultConfig{
				Seed:              opts.Seed,
				TransientRate:     f * opts.Transient,
				TransientFailures: 2,
				PermanentRate:     f * opts.Permanent,
			})
			runName := fmt.Sprintf("faults/%s/t%.3f", p.label, f*opts.Transient)
			m, err := StartMeasurement(runName, 50, fd, db.Pool, r.Tracer)
			if err != nil {
				return Figure{}, err
			}
			op := assembly.New(volcano.NewSlice(items), db.Store, db.Template, assembly.Options{
				Window:      50,
				Scheduler:   assembly.Elevator,
				FaultPolicy: p.fp,
				Tracer:      r.Tracer,
				Metrics:     r.Metrics,
			})
			if _, err := volcano.Count(op); err != nil {
				m.Abort()
				return Figure{}, err
			}
			st := op.Stats()
			m.End(st)
			s.X = append(s.X, 100*f*opts.Transient)
			s.Y = append(s.Y, 100*float64(st.Assembled)/float64(len(db.Roots)))
			if p.fp == assembly.RetryFaults {
				s.Extra = append(s.Extra, float64(st.FaultRetries))
			} else {
				s.Extra = append(s.Extra, float64(st.Skipped))
			}
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AllFigures runs every reproduced figure at the given scale.
func (r *Runner) AllFigures(scale float64) ([]Figure, error) {
	var out []Figure
	for _, w := range []int{1, 50} {
		for _, sub := range []byte{'a', 'b', 'c'} {
			f, err := r.FigScheduling(w, sub, scale)
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
	}
	faults := func(s float64) (Figure, error) { return r.FigFaults(s, DefaultFaultOptions) }
	for _, fn := range []func(float64) (Figure, error){r.Fig14, r.Fig15, r.Fig16, r.WindowFootprint, r.BufferWindow, r.MultiDevice, r.PageBatch, faults} {
		f, err := fn(scale)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
