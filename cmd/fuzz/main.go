// Command fuzz is the continuous fuzzing driver for the strict-
// inequalities toolchain. In its default mode it sweeps generated
// programs through the hardened pipeline and three oracles
// (pipeline-panic capture, interpreter-differential soundness,
// sanitizer verdict refutation), buckets findings by normalized
// signature, minimizes each bucket's witness with delta debugging,
// and persists one self-describing repro file per bucket to the
// regression corpus.
//
// Usage:
//
//	fuzz [-n N | -duration D] [-seed S] [-jobs J] [-corpus DIR]
//	fuzz -replay [-corpus DIR] [-jobs J]
//
// With -replay it becomes a regression gate: every corpus entry is
// re-run and checked against its expect: clause (clean entries must
// stay clean, planted bugs must stay detected, recorded failures
// must still reproduce). The replay report is byte-identical at any
// -jobs value. Exit status is non-zero when fuzzing found buckets or
// replay failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/budget"
	"repro/internal/driver"
	"repro/internal/fuzz"
)

func main() {
	os.Exit(run())
}

func run() int {
	n := flag.Int("n", 200, "number of programs to generate (ignored with -replay)")
	duration := flag.Duration("duration", 0, "stop after this wall-clock time instead of a fixed count")
	seed := flag.Int64("seed", 1, "first generator seed; program i uses seed+i")
	jobs := flag.Int("jobs", runtime.NumCPU(), "concurrent oracle runs (reports are byte-identical at any value)")
	corpus := flag.String("corpus", "corpus", "regression corpus directory")
	replay := flag.Bool("replay", false, "replay the corpus as a regression gate instead of fuzzing")
	doReduce := flag.Bool("reduce", true, "minimize each new bucket's witness before persisting")
	timeout := flag.Duration("timeout", 30*time.Second, "per-stage pipeline deadline")
	maxSteps := flag.Int("max-steps", 2_000_000, "per-solve worklist step cap (0 = unlimited)")
	reduceTimeout := flag.Duration("reduce-timeout", 2*time.Minute, "wall-clock cap per minimization")
	stateDir := flag.String("state", "", "checkpoint directory: journal per-program outcomes so a killed run can resume")
	resume := flag.Bool("resume", false, "with -state: reuse the existing journal, skipping programs it already covers")
	cacheDir := flag.String("persist-cache", "", "durable per-function memo store directory (engages only with -timeout 0 -max-steps 0)")
	flag.Parse()

	cache, err := driver.OpenCache(false, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if cache != nil && (*timeout != 0 || *maxSteps != 0) {
		fmt.Fprintln(os.Stderr, "fuzz: note: -persist-cache is bypassed on budgeted runs; add -timeout 0 -max-steps 0 to engage it")
	}
	opt := fuzz.Options{Timeout: *timeout, MaxSteps: *maxSteps, Cache: cache}

	if *replay {
		entries, err := fuzz.ReadCorpus(*corpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if len(entries) == 0 {
			fmt.Fprintf(os.Stderr, "fuzz: no corpus entries under %s\n", *corpus)
			return 1
		}
		res := fuzz.Replay(entries, *jobs, opt)
		fmt.Print(res.Report)
		if !res.Ok() {
			return 1
		}
		return 0
	}

	ctx, stop := driver.SignalContext()
	defer stop()

	loopOpt := fuzz.LoopOptions{
		N:            *n,
		Duration:     *duration,
		Seed:         *seed,
		Jobs:         *jobs,
		CorpusDir:    *corpus,
		Reduce:       *doReduce,
		ReduceBudget: budget.Spec{Timeout: *reduceTimeout},
		Check:        opt,
		Log:          os.Stderr,
	}
	if *stateDir != "" {
		ck, err := driver.OpenState(*stateDir, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer ck.Close()
		loopOpt.State = ck
	}
	res, err := fuzz.LoopCtx(ctx, loopOpt)
	if res != nil && res.Interrupted {
		// The journal is flushed record by record; everything counted
		// in Completed survives the exit.
		driver.Resumable("fuzz", res.Completed, *n, *stateDir)
		return driver.ExitInterrupted
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if cache != nil {
		fmt.Fprintf(os.Stderr, "cache: %s\n", cache.Stats())
	}
	if res.Replayed > 0 {
		fmt.Fprintf(os.Stderr, "fuzz: resumed; %d of %d program(s) replayed from the journal\n",
			res.Replayed, res.Ran)
	}
	fmt.Printf("fuzz: %d programs, %d oracle checks, %d planted bugs detected, %d failure bucket(s)\n",
		res.Ran, res.Checks, res.Detections, len(res.Buckets))
	for _, b := range res.Buckets {
		loc := b.Path
		if loc == "" {
			loc = "(not persisted)"
		}
		fmt.Printf("  %-12s %s  x%d  %s\n", b.Oracle, b.Signature, b.Count, loc)
	}
	if len(res.Buckets) > 0 {
		return 1
	}
	return 0
}
