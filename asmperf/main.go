// Command asmperf is the repository's benchmark. It drives the library
// from outside, through its public functions only, on three workloads
// that load different layers:
//
//   - paper-cold: the paper's database, larger than the buffer pool, on
//     the in-memory simulated disk; one client runs elevator-scheduled
//     assembly queries. The scheduler, buffer misses and seeks dominate.
//   - fleet-serve: the same database spread over a three-member shard
//     router of page services on TCP loopback, queried through the
//     serve layer's /query over HTTP at a fixed open-loop rate. Page
//     round trips dominate.
//   - update-mix: a small database that fits in the pool, with a WAL;
//     one client alternates write batches (in-place updates plus
//     appends, then a flush) with predicate queries.
//
// Usage:
//
//	bash asmperf/run.sh --workload paper-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// splits the time between an untraced and a traced phase and reports
// per-layer metrics from spans the benchmark records around each call
// into a layer. Every query result is checked against an oracle and
// every traced wrapper count against its layer's own counter; any
// mismatch makes the result line say "correct": false and the command
// exit 1. The last line of standard output is the JSON result.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// gcLimit is the heap size at which the benchmark process collects.
// The workloads' live heaps are 5 to 13 MB, so the default proportional
// trigger would start a collection every few milliseconds and a query's
// latency would depend on whether it overlapped one. Collecting at a
// fixed limit instead keeps collections rare and the latency
// distribution unimodal; allocation cost still shows in
// allocs_per_object and bytes_per_object.
const gcLimit = 256 << 20

// runConfig is the parsed command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string
}

var workloads = map[string]func(runConfig) (*report, error){
	"paper-cold":  runPaperCold,
	"fleet-serve": runFleetServe,
	"update-mix":  runUpdateMix,
}

func main() {
	var cfg runConfig
	var secs float64
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-cold, fleet-serve or update-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&secs, "seconds", 30, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out-dir", ".", "directory for the traced run's span file")
	flag.Parse()
	cfg.seconds = time.Duration(secs * float64(time.Second))
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "asmperf: bad arguments (workload %q, trace %d, seconds %v)\n",
			cfg.workload, traceFlag, secs)
		flag.Usage()
		os.Exit(2)
	}
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(gcLimit)
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asmperf: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, cfg.workload, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "asmperf: %v\n", err)
		os.Exit(1)
	}
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}
