// Command artifact regenerates the paper's entire evaluation in one
// run, mirroring the run.sh scripts of the original virtual-machine
// artifact (Appendix A): Figures 8, 9, 10 via the aa-eval protocol,
// Figure 11 and the Section 4.2 solver statistics, and Figure 12's
// PDG memory-node counts. Results are written as CSV files into the
// directory given by -out (default ./results), plus a summary.txt
// recording the headline comparisons against the paper's numbers.
//
// Durability: every output file is buffered in memory and written
// atomically at the end of its phase — a killed run never leaves a
// half-written CSV. With -state DIR each program's row is journaled
// as it completes, under its phase's prefix, so rerunning with -resume
// skips everything already done and emits identical outputs.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/figures"
	"repro/internal/harness"
	"repro/internal/persist"
)

func main() {
	out := flag.String("out", "results", "output directory for CSV files")
	timeout := flag.Duration("timeout", 0, "per-stage analysis deadline per program (0 = unlimited); exhausted stages degrade soundly")
	maxIters := flag.Int("max-iters", 0, "per-solve worklist step cap (0 = unlimited)")
	strict := flag.Bool("strict", false, "abort on the first contained failure instead of degrading")
	jobs := flag.Int("jobs", runtime.NumCPU(), "programs analyzed concurrently per phase (results are identical at any value)")
	useCache := flag.Bool("cache", true, "share a content-addressed memo cache across all phases; stats go to stderr")
	cacheDir := flag.String("persist-cache", "", "durable memo store directory; solves persist across artifact runs")
	stateDir := flag.String("state", "", "checkpoint directory: journal per-program results so a killed run can resume")
	resume := flag.Bool("resume", false, "with -state: reuse the existing journal, skipping completed work")
	flag.Parse()
	cache, err := driver.OpenCache(*useCache, *cacheDir)
	if err != nil {
		fatal(err)
	}
	sigCtx, stop := driver.SignalContext()
	defer stop()
	// The phases share the cache, so functions that recur within and
	// across the corpora rebind memoized artifacts.
	b := figures.Batch{Ctx: sigCtx, Jobs: *jobs, Config: harness.Config{
		Timeout: *timeout, MaxSteps: *maxIters, Strict: *strict, Cache: cache,
	}}
	if *stateDir != "" {
		c, err := driver.OpenState(*stateDir, *resume)
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		b.State = c
	}
	// check ends the run on a failed phase. Every completed row is
	// already journaled, so an interrupted phase exits 130 at once.
	check := func(phase string, err error) {
		var ie *figures.Interrupted
		if errors.As(err, &ie) {
			driver.Resumable("artifact: phase "+phase, ie.Done, ie.Total, *stateDir)
			os.Exit(driver.ExitInterrupted)
		}
		if err != nil {
			fatal(err)
		}
	}
	// degraded notes a degraded program on stderr; its conservative
	// results are used as-is unless -strict.
	degraded := func(name, diag string) {
		if diag != "" {
			fmt.Fprintf(os.Stderr, "%s: degraded\n%s", name, diag)
			if *strict {
				os.Exit(1)
			}
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	// The summary and every CSV are buffered and written atomically:
	// readers never observe a torn results directory.
	var summary bytes.Buffer
	writeOut := func(name string, data []byte) {
		if err := persist.AtomicWriteFile(filepath.Join(*out, name), data, 0o644); err != nil {
			fatal(err)
		}
	}
	note := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		fmt.Println(line)
		fmt.Fprintln(&summary, line)
	}

	start := time.Now()
	note("reproduction artifact run, %s", time.Now().Format(time.RFC3339))

	// --- Figures 9 and 10: the SPEC table with CF. ---
	note("\n[1/4] SPEC suite (Figures 9 and 10)...")
	b.Config.WithCF = true
	spec, err := figures.AAEval(b, "spec:", corpus.Spec())
	check("spec", err)
	b.Config.WithCF = false
	var f9 bytes.Buffer
	fmt.Fprintln(&f9, "benchmark,queries,ba_pct,lt_pct,balt_pct,bacf_pct")
	for _, r := range spec.Rows {
		degraded(r.Name, r.Diag)
		fmt.Fprintf(&f9, "%s,%d,%.2f,%.2f,%.2f,%.2f\n",
			r.Name, r.Queries, r.Pct("BA"), r.Pct("LT"), r.Pct("BA+LT"), r.Pct("BA+CF"))
	}
	writeOut("fig9_fig10_spec.csv", f9.Bytes())
	for _, r := range spec.Rows {
		switch r.Name {
		case "lbm":
			note("  lbm: LT %.1f%% > BA %.1f%% (paper: 10.15 > 5.90)", r.Pct("LT"), r.Pct("BA"))
		case "gobmk":
			note("  gobmk: BA+LT %.1f%% vs BA %.1f%% (paper: 63.33 vs 48.49)", r.Pct("BA+LT"), r.Pct("BA"))
		case "omnetpp":
			note("  omnetpp: BA+CF %.1f%% vs BA+LT %.1f%% (paper: ~3x)", r.Pct("BA+CF"), r.Pct("BA+LT"))
		}
	}

	// --- Figure 8: the test-suite sweep. ---
	note("\n[2/4] test-suite sweep (Figure 8)...")
	suite, err := figures.AAEval(b, "testsuite:", corpus.TestSuite(100))
	check("testsuite", err)
	var f8 bytes.Buffer
	fmt.Fprintln(&f8, "benchmark,queries,ba_no,lt_no,balt_no")
	for _, r := range suite.Rows {
		degraded(r.Name, r.Diag)
		fmt.Fprintf(&f8, "%s,%d,%d,%d,%d\n", r.Name, r.Queries, r.No["BA"], r.No["LT"], r.No["BA+LT"])
	}
	writeOut("fig8_testsuite.csv", f8.Bytes())
	note("  suite-wide: LT lifts BA by %.2f%% (paper: 9.49%%)", suite.Lift())

	// --- Figure 11 + Section 4.2, from the solver statistics of the
	// two phases above. ---
	note("\n[3/4] scalability (Figure 11)...")
	scale, err := figures.Scalability(50, suite, spec)
	if err != nil {
		fatal(err)
	}
	var f11 bytes.Buffer
	fmt.Fprintln(&f11, "benchmark,instructions,constraints,pops,vars")
	for _, r := range scale.Rows {
		fmt.Fprintf(&f11, "%s,%d,%d,%d,%d\n", r.Name, r.LT.Instrs, r.LT.Constraints, r.LT.Pops, r.LT.Vars)
	}
	writeOut("fig11_scalability.csv", f11.Bytes())
	note("  R² = %.3f (paper: 0.992)", scale.Fit.R2)
	note("  LT sets with <= 2 elements: %.1f%% (paper: >95%%)", scale.SmallSets)

	// --- Figure 12. ---
	note("\n[4/4] PDG memory nodes (Figure 12)...")
	pdg, err := figures.PDG(b, "pdg:", figures.PerDepth)
	check("pdg", err)
	var f12 bytes.Buffer
	fmt.Fprintln(&f12, "program,depth,ba_nodes,balt_nodes")
	for _, r := range pdg.Rows {
		degraded(r.Name, r.Diag)
		if r.Failed {
			fmt.Fprintf(os.Stderr, "%s: pdg construction degraded, program skipped\n", r.Name)
			continue
		}
		fmt.Fprintf(&f12, "%s,%d,%d,%d\n", r.Name, r.Depth, r.BA, r.BALT)
	}
	writeOut("fig12_pdg.csv", f12.Bytes())
	note("  memory nodes: BA %d, BA+LT %d (%.2fx; paper: 6.23x)", pdg.BA, pdg.BALT, pdg.Ratio())

	if cache != nil {
		fmt.Fprintf(os.Stderr, "cache: %s\n", cache.Stats())
	}
	note("\ndone in %s; CSVs in %s/", time.Since(start).Round(time.Millisecond), *out)
	writeOut("summary.txt", summary.Bytes())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
