// Command scalability reproduces the paper's Figure 11 and the solver
// statistics of Section 4.2 over the corpus: instructions vs
// constraints with a least-squares fit (the paper reports R² = 0.992),
// worklist pops per constraint (~2.12), runtimes, and the LT set size
// distribution (>95% of sets hold two or fewer elements).
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
	"sort"
	"time"

	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/harness"
	"repro/internal/persist"
	"repro/internal/stats"
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

	// All primary output funnels through one writer: stdout normally,
	// a buffer flushed atomically to -o so a crash or signal mid-run
	// can never leave a torn file behind.
	var out io.Writer = os.Stdout
	var buf bytes.Buffer
	if *outPath != "" {
		out = &buf
	}
	flush := func() int {
		if *outPath != "" {
			if err := persist.AtomicWriteFile(*outPath, buf.Bytes(), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		return 0
	}

	code := runFigure11(out, *n, *showSets, *csv, *timeout, *maxIters, *strict, *jobs, *useCache, *cacheDir)
	if f := flush(); code == 0 && f != 0 {
		code = f
	}
	os.Exit(code)
}

func runFigure11(out io.Writer, n int, showSets, csv bool, timeout time.Duration, maxIters int, strict bool, jobs int, useCache bool, cacheDir string) int {
	progs := append(corpus.TestSuite(100), corpus.Spec()...)

	type row struct {
		name                string
		instrs, constraints int
		pops, vars          int
		elapsed             time.Duration
	}
	var rows []row
	sizeDist := map[int]int{}
	cache, err := driver.OpenCache(useCache, cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	items := make([]harness.BatchItem, len(progs))
	for i, p := range progs {
		items[i] = harness.BatchItem{Name: p.Name, Src: p.Source}
	}
	cfg := harness.Config{
		Timeout: timeout, MaxSteps: maxIters, Strict: strict, Cache: cache,
	}
	exit := 0
	harness.RunBatch(cfg, jobs, items, nil,
		func(i int, outc *harness.BatchOutcome) {
			if outc.Err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", outc.Name, outc.Err)
				exit = 1
				return
			}
			if rep := outc.Pipe.Report(); !rep.Ok() {
				fmt.Fprintf(os.Stderr, "%s: degraded (its statistics undercount the full solve)\n%s",
					outc.Name, rep)
			}
			st := outc.Res.LT.Stats
			rows = append(rows, row{
				name: outc.Name, instrs: st.Instrs, constraints: st.Constraints,
				pops: st.Pops, vars: st.Vars, elapsed: outc.AnalyzeTime,
			})
			for k, v := range st.SetSizes {
				sizeDist[k] += v
			}
		})
	if exit != 0 {
		return exit
	}
	if cache != nil {
		fmt.Fprintf(os.Stderr, "cache: %s\n", cache.Stats())
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].instrs > rows[j].instrs })
	if len(rows) > n {
		rows = rows[:n]
	}
	// Re-sort ascending for display, as in the paper's figure.
	sort.Slice(rows, func(i, j int) bool { return rows[i].instrs < rows[j].instrs })

	var xs, ys []float64
	totalPops, totalCons := 0, 0
	if csv {
		fmt.Fprintln(out, "benchmark,instructions,constraints,pops,vars,elapsed_us")
	} else {
		fmt.Fprintf(out, "%-28s %12s %12s %10s %8s %10s\n",
			"benchmark", "instructions", "constraints", "pops", "vars", "elapsed")
	}
	for _, r := range rows {
		xs = append(xs, float64(r.instrs))
		ys = append(ys, float64(r.constraints))
		totalPops += r.pops
		totalCons += r.constraints
		if csv {
			fmt.Fprintf(out, "%s,%d,%d,%d,%d,%d\n",
				r.name, r.instrs, r.constraints, r.pops, r.vars,
				r.elapsed.Microseconds())
		} else {
			fmt.Fprintf(out, "%-28s %12d %12d %10d %8d %10s\n",
				r.name, r.instrs, r.constraints, r.pops, r.vars, r.elapsed)
		}
	}
	fit, err := stats.LinearFit(xs, ys)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(out, "\nconstraints ≈ %.3f * instructions %+.1f\n", fit.Slope, fit.Intercept)
	fmt.Fprintf(out, "R² (constraints vs instructions) = %.3f   (paper: 0.992)\n", fit.R2)
	if totalCons > 0 {
		fmt.Fprintf(out, "worklist pops per variable       = %.2f   (paper: ~2.12 per constraint)\n",
			float64(totalPops)/float64(totalCons))
	}

	if showSets {
		fmt.Fprintln(out, "\nLT set size distribution (all programs):")
		var sizes []int
		total := 0
		for k, v := range sizeDist {
			sizes = append(sizes, k)
			total += v
		}
		sort.Ints(sizes)
		small := 0
		for _, k := range sizes {
			fmt.Fprintf(out, "  |LT| = %-3d  %7d sets\n", k, sizeDist[k])
			if k <= 2 {
				small += sizeDist[k]
			}
		}
		fmt.Fprintf(out, "sets with <= 2 elements: %.1f%%   (paper: >95%%)\n",
			100*float64(small)/float64(total))
	}
	return 0
}
