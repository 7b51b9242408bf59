// Command aaeval reproduces the precision experiments of the paper:
// Figure 8 (LLVM test suite stand-in, 100 programs), Figure 9 (SPEC
// 2006 stand-in, 16 workloads), and Figure 10 (adding the Andersen-
// style CF analysis). For every benchmark it runs the aa-eval
// protocol — all pairs of pointers per function — against BA, LT,
// BA+LT, and optionally ST (-steens) and BA+CF (-cf), and prints one
// row per benchmark.
//
// With -state DIR each benchmark's row is journaled as it completes;
// a run killed mid-suite and restarted with -resume skips the
// completed benchmarks and prints the identical table.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/figures"
	"repro/internal/harness"
)

func main() {
	os.Exit(run())
}

func run() int {
	suite := flag.String("suite", "spec", "benchmark suite: spec | testsuite")
	n := flag.Int("n", 100, "number of programs for -suite testsuite")
	withCF := flag.Bool("cf", false, "also evaluate the Andersen-style CF analysis (Figure 10)")
	withST := flag.Bool("steens", false, "also evaluate the Steensgaard-style unification analysis (ST)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	timeout := flag.Duration("timeout", 0, "per-stage analysis deadline per benchmark (0 = unlimited); exhausted stages degrade soundly")
	maxIters := flag.Int("max-iters", 0, "per-solve worklist step cap (0 = unlimited)")
	strict := flag.Bool("strict", false, "abort on the first contained failure instead of degrading")
	jobs := flag.Int("jobs", runtime.NumCPU(), "programs analyzed concurrently (output is identical at any value)")
	useCache := flag.Bool("cache", false, "share a content-addressed memo cache across all programs; stats go to stderr")
	cacheDir := flag.String("persist-cache", "", "durable memo store directory; artifacts persist across runs")
	stateDir := flag.String("state", "", "checkpoint directory: journal per-benchmark rows so a killed run can resume")
	resume := flag.Bool("resume", false, "with -state: reuse the existing journal, skipping completed benchmarks")
	flag.Parse()

	var progs []corpus.Program
	switch *suite {
	case "spec":
		progs = corpus.Spec()
	case "testsuite":
		progs = corpus.TestSuite(*n)
	default:
		fmt.Fprintf(os.Stderr, "unknown suite %q\n", *suite)
		return 2
	}

	cache, err := driver.OpenCache(*useCache, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ctx, stop := driver.SignalContext()
	defer stop()
	b := figures.Batch{Ctx: ctx, Jobs: *jobs, Config: harness.Config{
		Timeout:  *timeout,
		MaxSteps: *maxIters,
		Strict:   *strict,
		WithCF:   *withCF,
		WithST:   *withST,
		Cache:    cache,
	}}
	if *stateDir != "" {
		c, err := driver.OpenState(*stateDir, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer c.Close()
		b.State = c
	}

	t, err := figures.AAEval(b, "", progs)
	var ie *figures.Interrupted
	if errors.As(err, &ie) {
		driver.Resumable("aaeval", ie.Done, ie.Total, *stateDir)
		return driver.ExitInterrupted
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	degradedBenchmarks := 0
	for _, r := range t.Rows {
		if r.Diag != "" {
			degradedBenchmarks++
			fmt.Fprintf(os.Stderr, "%s: degraded\n%s", r.Name, r.Diag)
		}
	}
	if cache != nil {
		fmt.Fprintf(os.Stderr, "cache: %s\n", cache.Stats())
	}
	rows := t.ByQueries()

	if *csv {
		fmt.Print("benchmark,queries")
		for _, an := range t.Order {
			fmt.Printf(",%s_no,%s_pct", an, an)
		}
		fmt.Println()
		for _, r := range rows {
			fmt.Printf("%s,%d", r.Name, r.Queries)
			for _, an := range t.Order {
				fmt.Printf(",%d,%.2f", r.No[an], r.Pct(an))
			}
			fmt.Println()
		}
		return 0
	}
	fmt.Printf("%-28s %10s", "benchmark", "queries")
	for _, an := range t.Order {
		fmt.Printf(" %9s", an)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-28s %10d", r.Name, r.Queries)
		for _, an := range t.Order {
			fmt.Printf(" %8.2f%%", r.Pct(an))
		}
		fmt.Println()
	}
	if degradedBenchmarks > 0 {
		fmt.Fprintf(os.Stderr, "%d benchmark(s) ran degraded; their rows are sound but conservative\n",
			degradedBenchmarks)
	}
	return 0
}
