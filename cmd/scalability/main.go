// Command scalability reproduces the paper's Figure 11 and the solver
// statistics of Section 4.2 over the corpus: instructions vs
// constraints with a least-squares fit (the paper reports R² = 0.992),
// worklist pops per constraint (~2.12), runtimes, and the LT set size
// distribution (>95% of sets hold two or fewer elements). With -csv
// the output holds only the CSV rows; the fit and the distribution go
// to stderr.
//
// It reports the paper's statistics, not a performance benchmark:
// cmd/sraaperf measures the analysis stack end to end and per layer.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/figures"
	"repro/internal/harness"
	"repro/internal/persist"
)

func main() {
	n := flag.Int("n", 50, "number of largest programs to measure (figure-11 mode)")
	showSets := flag.Bool("sets", false, "print the LT set size distribution (figure-11 mode)")
	csv := flag.Bool("csv", false, "emit CSV (figure-11 mode)")
	timeout := flag.Duration("timeout", 0, "per-stage analysis deadline per program (0 = unlimited); exhausted stages degrade soundly and are reported")
	maxIters := flag.Int("max-iters", 0, "per-solve worklist step cap (0 = unlimited)")
	strict := flag.Bool("strict", false, "abort on the first contained failure instead of degrading")
	jobs := flag.Int("jobs", runtime.NumCPU(), "programs analyzed concurrently (statistics are identical at any value; per-program timings include scheduling noise when > 1)")
	useCache := flag.Bool("cache", false, "share a content-addressed memo cache across all programs; stats go to stderr")
	cacheDir := flag.String("persist-cache", "", "durable memo store directory; solves persist across runs")
	outPath := flag.String("o", "", "write the output to this file instead of stdout (atomic: complete file or no file)")
	flag.Parse()

	cache, err := driver.OpenCache(*useCache, *cacheDir)
	check(err)
	cfg := harness.Config{Timeout: *timeout, MaxSteps: *maxIters, Strict: *strict, Cache: cache}
	t, err := figures.AAEval(figures.Batch{Config: cfg, Jobs: *jobs}, "",
		append(corpus.TestSuite(100), corpus.Spec()...))
	check(err)
	for _, r := range t.Rows {
		if r.Diag != "" {
			fmt.Fprintf(os.Stderr, "%s: degraded (its statistics undercount the full solve)\n%s",
				r.Name, r.Diag)
		}
	}
	if cache != nil {
		fmt.Fprintf(os.Stderr, "cache: %s\n", cache.Stats())
	}
	fig, err := figures.Scalability(*n, t)
	check(err)

	// The output is buffered for -o, which is written atomically, so
	// a crash or signal mid-run never leaves a torn file. The summary
	// follows the rows, except in CSV mode, where the output must stay
	// CSV.
	var out bytes.Buffer
	var summary io.Writer = &out
	if *csv {
		summary = os.Stderr
		fmt.Fprintln(&out, "benchmark,instructions,constraints,pops,vars,elapsed_us")
	} else {
		fmt.Fprintf(&out, "%-28s %12s %12s %10s %8s %10s\n",
			"benchmark", "instructions", "constraints", "pops", "vars", "elapsed")
	}
	// Smallest first, as in the paper's figure.
	for i := len(fig.Rows) - 1; i >= 0; i-- {
		r, st := fig.Rows[i], fig.Rows[i].LT
		if *csv {
			fmt.Fprintf(&out, "%s,%d,%d,%d,%d,%d\n",
				r.Name, st.Instrs, st.Constraints, st.Pops, st.Vars, r.Elapsed.Microseconds())
		} else {
			fmt.Fprintf(&out, "%-28s %12d %12d %10d %8d %10s\n",
				r.Name, st.Instrs, st.Constraints, st.Pops, st.Vars, r.Elapsed)
		}
	}
	fmt.Fprintf(summary, "\nconstraints ≈ %.3f * instructions %+.1f\n", fig.Fit.Slope, fig.Fit.Intercept)
	fmt.Fprintf(summary, "R² (constraints vs instructions) = %.3f   (paper: 0.992)\n", fig.Fit.R2)
	fmt.Fprintf(summary, "worklist pops per constraint     = %.2f   (paper: ~2.12)\n", fig.PopsPerConstraint)
	if *showSets {
		fmt.Fprintln(summary, "\nLT set size distribution (all programs):")
		for _, s := range fig.SetSizes {
			fmt.Fprintf(summary, "  |LT| = %-3d  %7d sets\n", s.Size, s.Sets)
		}
		fmt.Fprintf(summary, "sets with <= 2 elements: %.1f%%   (paper: >95%%)\n", fig.SmallSets)
	}
	if *outPath == "" {
		_, err = os.Stdout.Write(out.Bytes())
	} else {
		err = persist.AtomicWriteFile(*outPath, out.Bytes(), 0o644)
	}
	check(err)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
