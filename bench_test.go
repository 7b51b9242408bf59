// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (Section 4):
//
//	BenchmarkFig8  — precision on the LLVM-test-suite stand-in
//	BenchmarkFig9  — the SPEC 2006 precision table
//	BenchmarkFig10 — BA+LT versus the Andersen-style BA+CF
//	BenchmarkFig11 — constraints-vs-instructions scalability (R²)
//	BenchmarkFig12 — PDG memory nodes on Csmith-style programs
//
// plus ablation benchmarks for the design choices DESIGN.md calls
// out. Each benchmark measures the end-to-end cost of regenerating
// its figure and, on the first iteration, reports the headline
// numbers through b.Log so `go test -bench . -v` doubles as the
// experiment harness. The figure benchmarks print the tables of
// internal/figures, as the cmd/ tools do row by row.
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/abcd"
	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/figures"
	"repro/internal/harness"
	"repro/internal/minic"
	"repro/internal/pentagon"
)

// figureBatch runs a figure the way the figure commands do.
var figureBatch = figures.Batch{Jobs: runtime.NumCPU()}

// aaeval regenerates an aa-eval table once per iteration.
func aaeval(b *testing.B, batch figures.Batch, progs []corpus.Program) *figures.AATable {
	b.Helper()
	var t *figures.AATable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if t, err = figures.AAEval(batch, "", progs); err != nil {
			b.Fatal(err)
		}
	}
	return t
}

// BenchmarkFig8 regenerates Figure 8: total queries and no-alias
// answers for LT, BA and BA+LT over the test-suite stand-in. The
// paper reports LT lifting BA by 9.49% over the whole suite.
func BenchmarkFig8(b *testing.B) {
	t := aaeval(b, figureBatch, corpus.TestSuite(100))
	_, queries := t.Sum("BA")
	b.Logf("Fig8: %d queries; BA %.2f%%, LT %.2f%%, BA+LT %.2f%%; LT lifts BA by %.2f%% (paper: 9.49%%)",
		queries, t.Pct("BA"), t.Pct("LT"), t.Pct("BA+LT"), t.Lift())
	if t.Lift() < 0 {
		b.Fatal("combination weaker than BA")
	}
}

// BenchmarkFig9 regenerates the SPEC 2006 table (Figure 9).
func BenchmarkFig9(b *testing.B) {
	t := aaeval(b, figureBatch, corpus.Spec())
	for _, r := range t.Rows {
		b.Logf("Fig9: %-8s %8d queries  BA %6.2f%%  LT %6.2f%%  BA+LT %6.2f%%",
			r.Name, r.Queries, r.Pct("BA"), r.Pct("LT"), r.Pct("BA+LT"))
	}
}

// BenchmarkFig10 regenerates Figure 10: BA versus BA+LT versus BA+CF.
func BenchmarkFig10(b *testing.B) {
	batch := figureBatch
	batch.Config.WithCF = true
	t := aaeval(b, batch, corpus.Spec())
	b.Logf("Fig10 (whole suite): BA %.2f%%  BA+LT %.2f%%  BA+CF %.2f%% — complementary, no clear winner",
		t.Pct("BA"), t.Pct("BA+LT"), t.Pct("BA+CF"))
}

// BenchmarkFig11 regenerates Figure 11: the linear relation between
// instruction count and constraint count over the 50 largest programs
// (paper: R² = 0.992), plus the worklist pops-per-constraint statistic
// of Section 4.2.
func BenchmarkFig11(b *testing.B) {
	progs := append(corpus.TestSuite(100), corpus.Spec()...)
	var fig *figures.ScaleTable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := figures.AAEval(figureBatch, "", progs)
		if err != nil {
			b.Fatal(err)
		}
		if fig, err = figures.Scalability(50, t); err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("Fig11: R² = %.3f (paper: 0.992); slope %.3f constraints/instr; pops/constraint = %.2f (paper: ~2.12)",
		fig.Fit.R2, fig.Fit.Slope, fig.PopsPerConstraint)
	if fig.Fit.R2 < 0.9 {
		b.Fatalf("constraints not linear in instructions: R² = %.3f", fig.Fit.R2)
	}
}

// BenchmarkFig12 regenerates Figure 12: PDG memory nodes with BA
// versus BA+LT on the 120 Csmith-style programs (paper: 6.23x more
// nodes).
func BenchmarkFig12(b *testing.B) {
	var t *figures.PDGTable
	for i := 0; i < b.N; i++ {
		var err error
		if t, err = figures.PDG(figureBatch, "", figures.PerDepth); err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("Fig12: memory nodes BA %d, BA+LT %d (%.2fx; paper: 6.23x on 120 programs)",
		t.BA, t.BALT, t.Ratio())
	if t.BALT <= t.BA {
		b.Fatal("BA+LT PDG not more precise than BA")
	}
}

// ablationPct runs the LT analysis with and without an ablated
// pipeline feature over a program suite and returns the no-alias
// percentages (the query sets differ slightly because e-SSA splitting
// adds pointer names, so percentages are the comparable metric).
func ablationPct(b *testing.B, progs []corpus.Program, opt core.PipelineOptions) (full, ablated float64) {
	b.Helper()
	var fullRep, ablRep []*alias.Report
	for _, p := range progs {
		mF, err := minic.Compile(p.Name, p.Source)
		if err != nil {
			b.Fatal(err)
		}
		prepF := core.Prepare(mF, core.PipelineOptions{})
		fullRep = append(fullRep, alias.Evaluate(mF, alias.NewSRAA(prepF.LT)))

		mA, err := minic.Compile(p.Name, p.Source)
		if err != nil {
			b.Fatal(err)
		}
		prepA := core.Prepare(mA, opt)
		ablRep = append(ablRep, alias.Evaluate(mA, alias.NewSRAA(prepA.LT)))
	}
	f := alias.MergeReports("full", fullRep...)
	a := alias.MergeReports("ablated", ablRep...)
	return f.PerAnalysis["LT"].NoAliasPercent(), a.PerAnalysis["LT"].NoAliasPercent()
}

// BenchmarkAblationNoESSA measures the value of the e-SSA program
// representation on comparison-heavy code: without live-range
// splitting, the branch-derived ordering facts (rule 5 of Figure 7)
// disappear.
func BenchmarkAblationNoESSA(b *testing.B) {
	progs := corpus.BranchFactSuite()
	var full, ablated float64
	for i := 0; i < b.N; i++ {
		full, ablated = ablationPct(b, progs, core.PipelineOptions{NoESSA: true})
	}
	b.Logf("ablation e-SSA (branch-fact suite): LT no-alias %.2f%% with, %.2f%% without",
		full, ablated)
	if ablated >= full {
		b.Fatal("removing e-SSA did not reduce precision on branch-heavy code")
	}
}

// BenchmarkAblationNoRanges measures the value of range support for
// classifying additions with variable operands (the delta the paper
// claims over ABCD).
func BenchmarkAblationNoRanges(b *testing.B) {
	progs := corpus.Spec()
	var full, ablated float64
	for i := 0; i < b.N; i++ {
		full, ablated = ablationPct(b, progs, core.PipelineOptions{
			Analysis: core.Options{NoRanges: true},
		})
	}
	b.Logf("ablation ranges: LT no-alias %.2f%% with, %.2f%% without", full, ablated)
}

// nonStrictKernel is a workload where the extension beyond Figure 7
// pays off: offsets advance by amounts that are only provably
// non-negative (n >= 0), so the paper's strict rules generate nothing
// while the non-strict extension still propagates the base ordering.
const nonStrictKernel = `
int f(int *v, int base, int n) {
  int s = 0;
  if (n >= 0) {
    int lo = base + 1;
    int hi = lo + n;
    int top = hi + n;
    s += v[base] + v[lo] + v[hi] + v[top];
  }
  return s;
}
`

// BenchmarkAblationNonStrict measures the non-strict (>=) extension
// beyond the paper's Figure 7 rules, on the SPEC suite plus a kernel
// built around non-negative advances.
func BenchmarkAblationNonStrict(b *testing.B) {
	progs := append(corpus.Spec(),
		corpus.Program{Name: "nonstrict-kernel", Source: nonStrictKernel})
	var base, ext int
	for i := 0; i < b.N; i++ {
		base, ext = 0, 0
		for _, p := range progs {
			mB, err := minic.Compile(p.Name, p.Source)
			if err != nil {
				b.Fatal(err)
			}
			prepB := core.Prepare(mB, core.PipelineOptions{})
			base += alias.Evaluate(mB, alias.NewSRAA(prepB.LT)).PerAnalysis["LT"].No

			mE, err := minic.Compile(p.Name, p.Source)
			if err != nil {
				b.Fatal(err)
			}
			prepE := core.Prepare(mE, core.PipelineOptions{
				Analysis: core.Options{NonStrict: true},
			})
			ext += alias.Evaluate(mE, alias.NewSRAA(prepE.LT)).PerAnalysis["LT"].No
		}
	}
	b.Logf("extension non-strict: LT no-alias %d paper rules, %d with extension (+%d pairs)",
		base, ext, ext-base)
	if ext < base {
		b.Fatal("non-strict extension lost precision")
	}
}

// BenchmarkABCDComparison measures the paper's closest related work
// (Section 5) head to head: the less-than analysis against a
// demand-driven ABCD engine, both feeding the same Definition 3.11
// criteria, over the SPEC suite. The expected shape: LT resolves at
// least as much (ranges classify variable-amount additions and the
// split copies carry subtraction facts), at different runtime
// profiles (closure vs on-demand).
func BenchmarkABCDComparison(b *testing.B) {
	progs := corpus.Spec()
	var ltNo, abcdNo int
	var queries int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ltNo, abcdNo, queries = 0, 0, 0
		for _, p := range progs {
			m, err := minic.Compile(p.Name, p.Source)
			if err != nil {
				b.Fatal(err)
			}
			prep := core.Prepare(m, core.PipelineOptions{})
			lt := alias.NewSRAA(prep.LT)
			ab := abcd.NewAnalysis(m)
			rep := alias.Evaluate(m, lt, ab)
			ltNo += rep.PerAnalysis["LT"].No
			abcdNo += rep.PerAnalysis["ABCD"].No
			queries += rep.PerAnalysis["LT"].Queries
		}
	}
	b.StopTimer()
	b.Logf("ABCD vs LT on %d queries: ABCD %d no-alias, LT %d no-alias (LT/ABCD = %.2fx)",
		queries, abcdNo, ltNo, float64(ltNo)/float64(abcdNo))
	if ltNo < abcdNo {
		b.Fatalf("ABCD (%d) outperformed LT (%d): ranges and splits should dominate", abcdNo, ltNo)
	}
}

// BenchmarkInterprocedural measures the parameter pseudo-phi
// extension of Section 4: on the call-fact suite, ordering facts
// exist only in the callers, so intra-procedural LT resolves nothing
// in the kernels while the inter-procedural mode does.
func BenchmarkInterprocedural(b *testing.B) {
	progs := corpus.CallFactSuite()
	var intra, inter int
	for i := 0; i < b.N; i++ {
		intra, inter = 0, 0
		for _, p := range progs {
			mI, err := minic.Compile(p.Name, p.Source)
			if err != nil {
				b.Fatal(err)
			}
			prepI := core.Prepare(mI, core.PipelineOptions{})
			intra += alias.Evaluate(mI, alias.NewSRAA(prepI.LT)).PerAnalysis["LT"].No

			mX, err := minic.Compile(p.Name, p.Source)
			if err != nil {
				b.Fatal(err)
			}
			prepX := core.Prepare(mX, core.PipelineOptions{Interprocedural: true})
			inter += alias.Evaluate(mX, alias.NewSRAA(prepX.LT)).PerAnalysis["LT"].No
		}
	}
	b.Logf("interprocedural extension: LT no-alias %d intra, %d inter (call-fact suite)",
		intra, inter)
	if inter <= intra {
		b.Fatal("interprocedural mode did not add facts on the call-fact suite")
	}
}

// BenchmarkDenseVsSparse quantifies the design choice the paper
// credits to Tavares et al.: a sparse analysis stores one fact set
// per variable, a dense one (Pentagons as originally formulated) one
// state per block boundary. The benchmark reports the state-count
// ratio and the runtime of each over the SPEC suite.
func BenchmarkDenseVsSparse(b *testing.B) {
	progs := corpus.Spec()
	var denseStates, sparseVars int
	var denseNs, sparseNs int64
	for i := 0; i < b.N; i++ {
		denseStates, sparseVars = 0, 0
		denseNs, sparseNs = 0, 0
		for _, p := range progs {
			m, err := minic.Compile(p.Name, p.Source)
			if err != nil {
				b.Fatal(err)
			}
			t0 := time.Now()
			for _, f := range m.Funcs {
				denseStates += pentagon.AnalyzeFunc(f).States
			}
			denseNs += time.Since(t0).Nanoseconds()

			m2, err := minic.Compile(p.Name, p.Source)
			if err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			prep := core.Prepare(m2, core.PipelineOptions{})
			sparseNs += time.Since(t1).Nanoseconds()
			sparseVars += prep.LT.Stats.Vars
		}
	}
	b.Logf("dense vs sparse: %d dense state entries vs %d sparse sets (%.1fx); dense %.1fms, sparse(full pipeline) %.1fms",
		denseStates, sparseVars, float64(denseStates)/float64(sparseVars),
		float64(denseNs)/1e6, float64(sparseNs)/1e6)
	if denseStates <= sparseVars {
		b.Fatal("dense analysis unexpectedly cheaper in space")
	}
}

// BenchmarkPipeline measures the raw analysis pipeline cost on the
// largest workload, the throughput number behind Section 4.2's
// runtime discussion.
func BenchmarkPipeline(b *testing.B) {
	var gcc corpus.Program
	for _, p := range corpus.Spec() {
		if p.Name == "gcc" {
			gcc = p
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := minic.Compile(gcc.Name, gcc.Source)
		if err != nil {
			b.Fatal(err)
		}
		prep := core.Prepare(m, core.PipelineOptions{})
		if prep.LT.Stats.Constraints == 0 {
			b.Fatal("no constraints")
		}
	}
}

// BenchmarkHarnessOverhead measures what the hardened pipeline
// (internal/harness: per-stage panic containment, budget tracking,
// quarantine bookkeeping) costs on the happy path relative to the
// bare core.Prepare pipeline over the SPEC suite. The wrappers add a
// deferred recover per stage and a nil budget tracker per solve, so
// the expected overhead is under 5%; the guard below is deliberately
// looser to keep CI stable on noisy machines.
func BenchmarkHarnessOverhead(b *testing.B) {
	progs := corpus.Spec()
	runBare := func(b *testing.B) time.Duration {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, p := range progs {
				m, err := minic.Compile(p.Name, p.Source)
				if err != nil {
					b.Fatal(err)
				}
				prep := core.Prepare(m, core.PipelineOptions{})
				if prep.LT.Stats.Vars == 0 {
					b.Fatal("no variables")
				}
			}
		}
		return time.Since(start)
	}
	runHarness := func(b *testing.B) time.Duration {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, p := range progs {
				pipe := harness.New(harness.Config{})
				res, err := pipe.CompileAndAnalyze(p.Name, p.Source)
				if err != nil {
					b.Fatal(err)
				}
				if res.LT.Stats.Vars == 0 {
					b.Fatal("no variables")
				}
				if !pipe.Report().Ok() {
					b.Fatalf("%s: happy path degraded:\n%s", p.Name, pipe.Report())
				}
			}
		}
		return time.Since(start)
	}
	var bareD, harnessD time.Duration
	var bareN, harnessN int
	b.Run("bare", func(b *testing.B) { bareD = runBare(b); bareN = b.N })
	b.Run("harness", func(b *testing.B) { harnessD = runHarness(b); harnessN = b.N })
	if bareN > 0 && harnessN > 0 && bareD > 0 {
		perBare := float64(bareD.Nanoseconds()) / float64(bareN)
		perHarness := float64(harnessD.Nanoseconds()) / float64(harnessN)
		ratio := perHarness / perBare
		b.Logf("harness overhead: bare %.2fms/op, harness %.2fms/op (%.3fx; expected < 1.05x)",
			perBare/1e6, perHarness/1e6, ratio)
		if ratio > 1.5 {
			b.Fatalf("harness overhead out of bounds: %.2fx the bare pipeline", ratio)
		}
	}
}

// BenchmarkParallelShards measures the sharded driver over the
// scalability corpus: the same batch at -jobs 1 versus -jobs 4
// (program-level sharding via harness.RunBatch). The outputs are
// byte-identical by construction — the differential suite proves it —
// so this benchmark is purely about wall clock. The >= 2x speedup
// expectation only holds when the hardware can actually run 4 workers,
// so the assertion is gated on runtime.NumCPU(); on smaller machines
// the measured ratio is still logged.
func BenchmarkParallelShards(b *testing.B) {
	progs := append(corpus.TestSuite(100), corpus.Spec()...)
	items := make([]harness.BatchItem, len(progs))
	for i, p := range progs {
		items[i] = harness.BatchItem{Name: p.Name, Src: p.Source}
	}
	measure := func(jobs int) (time.Duration, int) {
		var d time.Duration
		var n int
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				outs := harness.RunBatch(harness.Config{}, jobs, items, nil, nil)
				for _, out := range outs {
					if out.Err != nil {
						b.Fatalf("%s: %v", out.Name, out.Err)
					}
				}
			}
			d, n = time.Since(start), b.N
		})
		return d, n
	}
	serialD, serialN := measure(1)
	parD, parN := measure(4)
	if serialN > 0 && parN > 0 && parD > 0 {
		perSerial := float64(serialD.Nanoseconds()) / float64(serialN)
		perPar := float64(parD.Nanoseconds()) / float64(parN)
		speedup := perSerial / perPar
		b.Logf("parallel shards: jobs=1 %.1fms/op, jobs=4 %.1fms/op, speedup %.2fx on %d CPU(s)",
			perSerial/1e6, perPar/1e6, speedup, runtime.NumCPU())
		if runtime.NumCPU() >= 4 && speedup < 2 {
			b.Fatalf("jobs=4 speedup %.2fx < 2x on a %d-CPU machine", speedup, runtime.NumCPU())
		}
	}
}

// BenchmarkMemoCache measures the content-addressed memo cache over
// the scalability corpus: a pass with no cache, a cold pass that fills
// one, and a warm pass that replays it. Besides the whole pass it
// reports the LT stage alone (lt-ms/op), the stage the cache replaces:
// a warm pass must hit on at least 90% of its lookups — every function
// text reappears unchanged — and its LT stage degenerates to key
// computations and artifact rebinds. DESIGN.md ("The memo cache")
// records what those cost against the solves of the nocache pass; the
// benchmark reports the numbers but asserts no timing.
func BenchmarkMemoCache(b *testing.B) {
	progs := append(corpus.TestSuite(100), corpus.Spec()...)
	items := make([]harness.BatchItem, len(progs))
	for i, p := range progs {
		items[i] = harness.BatchItem{Name: p.Name, Src: p.Source}
	}
	// runPass runs one serial pass and returns its LT stage's time.
	runPass := func(b *testing.B, cache *harness.Cache) time.Duration {
		var lt time.Duration
		outs := harness.RunBatch(harness.Config{Cache: cache}, 1, items,
			func(_ int, out *harness.BatchOutcome) {
				for _, st := range out.Pipe.Report().Timings {
					if st.Stage == harness.StageLessThan {
						lt += st.D
					}
				}
			}, nil)
		for _, out := range outs {
			if out.Err != nil {
				b.Fatalf("%s: %v", out.Name, out.Err)
			}
		}
		return lt
	}
	reportLT := func(b *testing.B, lt time.Duration) {
		b.ReportMetric(float64(lt.Microseconds())/1e3/float64(b.N), "lt-ms/op")
	}
	b.Run("nocache", func(b *testing.B) {
		b.ReportAllocs()
		var lt time.Duration
		for i := 0; i < b.N; i++ {
			lt += runPass(b, nil)
		}
		reportLT(b, lt)
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		var lt time.Duration
		for i := 0; i < b.N; i++ {
			lt += runPass(b, harness.NewCache())
		}
		reportLT(b, lt)
	})
	var warmRate float64
	b.Run("warm", func(b *testing.B) {
		cache := harness.NewCache()
		runPass(b, cache) // fill
		pre := cache.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		var lt time.Duration
		for i := 0; i < b.N; i++ {
			lt += runPass(b, cache)
		}
		b.StopTimer()
		reportLT(b, lt)
		post := cache.Stats()
		hits, misses := post.Hits-pre.Hits, post.Misses-pre.Misses
		if hits+misses > 0 {
			warmRate = float64(hits) / float64(hits+misses)
		}
		b.Logf("warm pass: hits=%d misses=%d hit-rate=%.1f%%", hits, misses, 100*warmRate)
		if warmRate < 0.9 {
			b.Fatalf("warm hit rate %.1f%% < 90%%", 100*warmRate)
		}
	})
}
