// Command bench is iobench, the repository's benchmark: four workloads —
// two for the batch analyst (logs on disk → report), two for the service
// client (HTTP query → body through iorouter → ioserved) — each reporting
// end-to-end answers with tracing off and, in a separate traced run, a
// per-layer ledger for decode → fold → store → serve → route. Every
// layer is measured from outside, by timing calls into its public
// functions; every output is checked byte-for-byte against a Workers=1,
// single-node render of the same data. See README.md in this directory.
//
//	go run ./bench --workload serve-hot --seed 11 --seconds 15 --trace 0
//	go run ./bench -all -seed 11 -out results.json
//	go run ./bench -compare a.json b.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"iolayers/internal/stats"
)

const workDirName = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var all, compareMode bool
	var runs int
	var out string
	fs.StringVar(&o.workload, "workload", "", "one of batch-row, batch-columnar, serve-hot, serve-churn")
	fs.Uint64Var(&o.seed, "seed", 11, "workload seed: same seed, same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	fs.IntVar(&o.ops, "ops", 0, "run exactly this many ops per pass instead of for --seconds (counts then repeat exactly)")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink corpora and fixtures ~200x (what the tests run)")
	fs.IntVar(&o.flip, "flip", -1, "self-test: corrupt one byte of answer N before the oracle sees it")
	fs.StringVar(&o.workRoot, "work", "", "scratch directory root (default "+workDirName+" in the current directory)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans here as JSON lines")
	fs.BoolVar(&all, "all", false, "run every workload, timed then traced, each in its own child process")
	fs.IntVar(&runs, "runs", 1, "with -all: timed runs per workload, on seeds seed, seed+1, ...")
	fs.StringVar(&out, "out", "", "write the full result document here (one run, or with -all every run)")
	fs.BoolVar(&compareMode, "compare", false, "compare two -all result files under BENCHMARK.json's bounds: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	switch {
	case compareMode:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", out, stdout, stderr)
	case all:
		return runAll(o, runs, out, stdout, stderr)
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == o.workload
	}
	if !known || o.seconds <= 0 {
		fmt.Fprintf(stderr, "bench: need --workload (one of %v) and --seconds > 0; or -all, or -compare\n", workloadNames)
		return 2
	}
	r, err := runWorkload(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	if out != "" {
		if err := writeJSONFile(out, r); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if o.traceOut != "" && o.trace {
		if err := writeSpans(o.traceOut, r.spans); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	r.print(stdout)
	if !r.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed\n", o.workload, r.Failed, r.Attempted)
		return 1
	}
	return 0
}

// environment is a workload set up: the batch analyst's files or the
// service client's cluster.
type environment interface {
	// run fills r from the timed run or, with o.trace, the traced one.
	run(ctx context.Context, o options, r *runResult) error
	close()
}

// runWorkload is one process's work: set the workload up (several times,
// for a steady setup_s), then either the timed run or the traced one.
func runWorkload(ctx context.Context, o options) (*runResult, error) {
	if o.workRoot == "" {
		o.workRoot = workDirName
	}
	if err := os.MkdirAll(o.workRoot, 0o755); err != nil {
		return nil, err
	}
	o.callers = max(1, min(runtime.NumCPU(), 4))
	r := newResult(o)
	var t *tracer
	if o.trace {
		t = newTracer()
	}
	in, err := generateInputs(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	defer in.close()

	// Several set-ups, for a steady median.
	setups := o.size().setups
	if o.trace {
		setups = 1
	}
	var env environment
	var times []float64
	for i := 0; i < setups && err == nil; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		if isBatch(o.workload) {
			env, err = setupBatch(ctx, o, in)
		} else {
			env, err = setupService(ctx, o, in, t)
		}
		times = append(times, time.Since(start).Seconds())
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.close()
	r.setN("setup_s", stats.Quantile(times, 0.5), len(times))

	debug.FreeOSMemory() // set-up's garbage is not the run's, nor are its pages
	if err := env.run(ctx, o, r); err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.set("fail_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)))
	return r, nil
}
