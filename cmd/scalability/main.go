// Command scalability measures solver speed and precision at scale.
//
// Its default mode reproduces the paper's Figure 11 and the solver
// statistics of Section 4.2 over the corpus: instructions vs
// constraints with a least-squares fit (the paper reports R² = 0.992),
// worklist pops per constraint (~2.12), runtimes, and the LT set size
// distribution (>95% of sets hold two or fewer elements).
//
// With -bench it becomes a continuous benchmark harness: synthetic
// modules of 1k to 100k functions (internal/synth) are pushed through
// every solver — BA, Steensgaard (ST), the strict-inequality pipeline
// (BA+LT), sparse Andersen (CF), and the pre-rework reference Andersen
// (CF-ref) — and per-solver wall-clock, allocation, and precision
// measurements are written as a schema-versioned BENCH_<timestamp>.json
// trajectory file. With -baseline FILE the fresh run is additionally
// compared against a committed baseline: wall-clock ratios are
// normalized by their median (so a uniformly slower or faster machine
// cancels out) and the run exits non-zero when any solver regresses
// past -tolerance, or when precision or the query workload drifts at
// all.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/alias"
	"repro/internal/andersen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/persist"
	"repro/internal/stats"
	"repro/internal/steens"
	"repro/internal/synth"
)

// exitRegression is the exit code of a -baseline run that found a
// regression, distinct from usage (2) and operational (1) failures so
// CI can tell them apart.
const exitRegression = 3

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

	bench := flag.Bool("bench", false, "benchmark mode: measure every solver on synthetic modules and emit a BENCH_<timestamp>.json trajectory file")
	sizes := flag.String("sizes", "1000,10000,100000", "comma-separated synthetic module sizes (functions) for -bench")
	seed := flag.Int64("seed", 1, "generation seed for -bench (same seed + sizes = byte-identical workload)")
	queryFuncs := flag.Int("query-funcs", 200, "functions sampled per module for the precision measurement in -bench")
	benchOut := flag.String("bench-out", "", "trajectory file path for -bench (default BENCH_<timestamp>.json)")
	baseline := flag.String("baseline", "", "compare the fresh -bench run against this baseline file; exit 3 past -tolerance (implies -bench, sizes/seed taken from the baseline)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed median-normalized wall-clock regression per row for -baseline")
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

	sizesSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "sizes" {
			sizesSet = true
		}
	})

	if *bench || *baseline != "" {
		code := runBench(out, *sizes, sizesSet, *seed, *queryFuncs, *benchOut, *baseline, *tolerance)
		if f := flush(); code == 0 && f != 0 {
			code = f
		}
		os.Exit(code)
	}
	code := runFigure11(out, *n, *showSets, *csv, *timeout, *maxIters, *strict, *jobs, *useCache, *cacheDir)
	if f := flush(); code == 0 && f != 0 {
		code = f
	}
	os.Exit(code)
}

// --- benchmark mode ---

// benchSchema versions the trajectory file format. Bump on any field
// change so -baseline refuses to compare across formats.
const benchSchema = "bench/v1"

// benchRow is one (module, solver) measurement.
type benchRow struct {
	Module     string  `json:"module"`
	Funcs      int     `json:"funcs"`
	Instrs     int     `json:"instrs"`
	Solver     string  `json:"solver"`
	WallMS     float64 `json:"wall_ms"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Queries    int     `json:"queries"`
	NoAliasPct float64 `json:"noalias_pct"`
}

// benchFile is the schema-versioned trajectory file.
type benchFile struct {
	Schema  string     `json:"schema"`
	Created string     `json:"created"`
	Go      string     `json:"go"`
	Seed    int64      `json:"seed"`
	Rows    []benchRow `json:"rows"`
}

func runBench(out io.Writer, sizesCSV string, sizesSet bool, seed int64, queryFuncs int, benchOut, baseline string, tolerance float64) int {
	var base *benchFile
	sizes, err := parseSizes(sizesCSV)
	if baseline != "" {
		b, berr := loadBaseline(baseline)
		if berr != nil {
			fmt.Fprintln(os.Stderr, berr)
			return 1
		}
		base = b
		// The workload must match the baseline's or the comparison is
		// meaningless: the seed always comes from the baseline, and so
		// do the sizes unless -sizes explicitly picks a subset (how CI
		// gates on a cheap tier of a baseline that also holds the
		// expensive ones).
		seed = base.Seed
		inBase := map[int]bool{}
		for _, r := range base.Rows {
			inBase[r.Funcs] = true
		}
		if sizesSet {
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			for _, n := range sizes {
				if !inBase[n] {
					fmt.Fprintf(os.Stderr, "size %d is not in baseline %s\n", n, baseline)
					return 2
				}
			}
		} else {
			sizes = nil
			for n := range inBase {
				sizes = append(sizes, n)
			}
			sort.Ints(sizes)
		}
		// Drop baseline rows outside the chosen tier so they are not
		// reported missing.
		keep := map[int]bool{}
		for _, n := range sizes {
			keep[n] = true
		}
		var kept []benchRow
		for _, r := range base.Rows {
			if keep[r.Funcs] {
				kept = append(kept, r)
			}
		}
		base.Rows = kept
	} else if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	now := time.Now().UTC()
	file := &benchFile{
		Schema:  benchSchema,
		Created: now.Format(time.RFC3339),
		Go:      runtime.Version(),
		Seed:    seed,
	}
	for _, fn := range sizes {
		rows, err := benchModule(out, fn, seed, queryFuncs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		file.Rows = append(file.Rows, rows...)
	}

	path := benchOut
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", now.Format("20060102T150405Z"))
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := persist.AtomicWriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(out, "\ntrajectory written to %s\n", path)

	if base != nil {
		regressions := compareBaseline(out, base, file, tolerance)
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "regression: %s\n", r)
			}
			return exitRegression
		}
		fmt.Fprintf(out, "baseline check passed (tolerance %.0f%%)\n", tolerance*100)
	}
	return 0
}

func parseSizes(csv string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -sizes entry %q", part)
		}
		sizes = append(sizes, v)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("-sizes is empty")
	}
	return sizes, nil
}

func loadBaseline(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Schema != benchSchema {
		return nil, fmt.Errorf("%s: schema %q, this binary speaks %q", path, b.Schema, benchSchema)
	}
	if len(b.Rows) == 0 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	return &b, nil
}

// timed measures wall clock and allocation of one solve. Alloc uses
// the monotone TotalAlloc counter, so GC activity does not skew it.
// The explicit GC up front keeps garbage from the previous phase from
// forcing a collection inside the measured region, which would
// otherwise dominate the short solves.
func timed(f func()) (float64, uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(wall.Microseconds()) / 1000, after.TotalAlloc - before.TotalAlloc
}

// timedBest reruns a side-effect-free solve and keeps the fastest
// wall clock (alloc is identical across runs, so the first is kept).
// The fast solvers finish in milliseconds, where a single scheduler
// hiccup is a 1.5x swing — best-of-n is what makes a 25% regression
// tolerance meaningful for them.
func timedBest(n int, f func()) (float64, uint64) {
	wall, alloc := timed(f)
	for i := 1; i < n; i++ {
		w, _ := timed(f)
		if w < wall {
			wall = w
		}
	}
	return wall, alloc
}

// benchModule measures every solver on one synthetic module size.
// Solve timings run on a pristine compile; the strict-inequality
// pipeline gets its own compile because preparation rewrites the IR
// (e-SSA sigmas, subtraction splitting). Precision is then measured on
// the prepared module with freshly solved analyses so every solver
// answers the identical query set.
func benchModule(out io.Writer, funcs int, seed int64, queryFuncs int) ([]benchRow, error) {
	name := fmt.Sprintf("synth-%d", funcs)
	src := synth.Module(funcs, seed)

	m1, err := minic.Compile(name, src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	instrs := countInstrs(m1)
	fmt.Fprintf(out, "%s: %d funcs, %d instrs\n", name, len(m1.Funcs), instrs)

	var st *steens.Analysis
	stMS, stAlloc := timedBest(3, func() { st = steens.Analyze(m1) })
	var cf *andersen.Analysis
	cfMS, cfAlloc := timedBest(3, func() { cf = andersen.Analyze(m1) })
	var cfRef *andersen.Analysis
	refMS, refAlloc := timedBest(3, func() { cfRef = andersen.AnalyzeReference(m1) })
	if st.Degraded() != nil || cf.Degraded() != nil || cfRef.Degraded() != nil {
		return nil, fmt.Errorf("%s: a solver degraded without a budget; module unusable", name)
	}

	m2, err := minic.Compile(name, src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var prep *core.Prepared
	ltMS, ltAlloc := timed(func() { prep = core.Prepare(m2, core.PipelineOptions{}) })

	// Precision on the prepared module: re-solve the whole-module
	// analyses on m2 so every row answers the same queries.
	st2 := steens.Analyze(m2)
	cf2 := andersen.Analyze(m2)
	ba := alias.NewBasic(m2)
	balt := alias.NewChain(ba, alias.NewSRAA(prep.LT))
	rep := alias.NewReport(name, ba, st2, balt, cf2)
	w := alias.NewPlan(ba, st2, balt, cf2).NewWorkspace()
	for i, f := range m2.Funcs {
		if i >= queryFuncs {
			break
		}
		w.EvaluateFunc(f, rep)
	}
	pct := func(an alias.Analysis) (int, float64) {
		c := rep.PerAnalysis[an.Name()]
		return c.Queries, c.NoAliasPercent()
	}
	baQ, baPct := pct(ba)
	stQ, stPct := pct(st2)
	ltQ, ltPct := pct(balt)
	cfQ, cfPct := pct(cf2)

	rows := []benchRow{
		{Module: name, Funcs: funcs, Instrs: instrs, Solver: "BA", WallMS: 0, AllocBytes: 0, Queries: baQ, NoAliasPct: baPct},
		{Module: name, Funcs: funcs, Instrs: instrs, Solver: "ST", WallMS: stMS, AllocBytes: stAlloc, Queries: stQ, NoAliasPct: stPct},
		{Module: name, Funcs: funcs, Instrs: instrs, Solver: "BA+LT", WallMS: ltMS, AllocBytes: ltAlloc, Queries: ltQ, NoAliasPct: ltPct},
		{Module: name, Funcs: funcs, Instrs: instrs, Solver: "CF", WallMS: cfMS, AllocBytes: cfAlloc, Queries: cfQ, NoAliasPct: cfPct},
		// CF-ref computes the identical fixed point (differentially
		// tested), so it shares CF's precision row.
		{Module: name, Funcs: funcs, Instrs: instrs, Solver: "CF-ref", WallMS: refMS, AllocBytes: refAlloc, Queries: cfQ, NoAliasPct: cfPct},
	}
	for _, r := range rows {
		fmt.Fprintf(out, "  %-7s %10.1fms %12s alloc   no-alias %6.2f%% of %d\n",
			r.Solver, r.WallMS, fmtBytes(r.AllocBytes), r.NoAliasPct, r.Queries)
	}
	return rows, nil
}

func countInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		f.Instrs(func(*ir.Instr) bool { n++; return true })
	}
	return n
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// compareBaseline diffs fresh against base. Wall-clock is compared via
// median-normalized ratios: ratio_i = fresh_i/base_i, scale = median
// over all rows, and a row regresses when ratio_i > scale*(1+tol) —
// a uniformly slower runner moves every ratio and cancels out, while
// one solver regressing moves only its own. Precision and query
// counts are deterministic, so any drift at all is a regression.
func compareBaseline(out io.Writer, base, fresh *benchFile, tol float64) []string {
	key := func(r benchRow) string { return r.Module + "/" + r.Solver }
	freshBy := map[string]benchRow{}
	for _, r := range fresh.Rows {
		freshBy[key(r)] = r
	}
	var regressions []string
	type pair struct {
		k     string
		ratio float64
	}
	var pairs []pair
	for _, b := range base.Rows {
		f, ok := freshBy[key(b)]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: missing from fresh run", key(b)))
			continue
		}
		if f.Queries != b.Queries {
			regressions = append(regressions,
				fmt.Sprintf("%s: query workload drifted (%d -> %d)", key(b), b.Queries, f.Queries))
		}
		if f.NoAliasPct < b.NoAliasPct-0.05 {
			regressions = append(regressions,
				fmt.Sprintf("%s: precision dropped (%.2f%% -> %.2f%%)", key(b), b.NoAliasPct, f.NoAliasPct))
		}
		if b.WallMS > 0 && f.WallMS > 0 {
			pairs = append(pairs, pair{key(b), f.WallMS / b.WallMS})
		}
	}
	if len(pairs) > 0 {
		ratios := make([]float64, len(pairs))
		for i, p := range pairs {
			ratios[i] = p.ratio
		}
		sort.Float64s(ratios)
		scale := ratios[len(ratios)/2]
		fmt.Fprintf(out, "baseline: machine scale ×%.2f (median wall ratio)\n", scale)
		for _, p := range pairs {
			if p.ratio > scale*(1+tol) {
				regressions = append(regressions,
					fmt.Sprintf("%s: wall %.2fx vs baseline (machine scale %.2fx, tolerance %.0f%%)",
						p.k, p.ratio, scale, tol*100))
			}
		}
	}
	return regressions
}

// --- figure-11 mode (the original corpus statistics) ---

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
