package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/alias"
	"repro/internal/andersen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/essa"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/rangeanal"
	"repro/internal/ssa"
	"repro/internal/steens"
	"repro/internal/synth"
)

// program is one input of a workload.
type program struct {
	name, src string
	// soundcheck marks the programs whose analysis results are checked
	// against the interpreter: Csmith-style programs, whose main runs
	// the code it analyzes, and the synthetic module.
	soundcheck bool
}

// batchPrograms builds a batch workload's inputs. The corpus is fixed,
// so the seed applies to batch-synth only.
func batchPrograms(name string, seed int64, smoke bool) []program {
	if name == "batch-synth" {
		funcs := 10000
		if smoke {
			funcs = 200
		}
		return []program{{
			name:       fmt.Sprintf("synth-%d", funcs),
			src:        synth.Module(funcs, seed),
			soundcheck: true,
		}}
	}
	ps := append(corpus.Spec(), corpus.TestSuite(100)...)
	if smoke {
		// Eight programs, one of them Csmith-style.
		ps = append(corpus.Spec()[:3], corpus.TestSuite(5)...)
	}
	return corpusPrograms(ps)
}

func corpusPrograms(ps []corpus.Program) []program {
	out := make([]program, len(ps))
	for i, p := range ps {
		// corpus.TestSuite names its Csmith-style programs "-random".
		out[i] = program{name: p.Name, src: p.Source, soundcheck: strings.HasSuffix(p.Name, "-random")}
	}
	return out
}

// batchAnalyses is the row set of `aaeval -cf -steens`, in its order.
func batchAnalyses(m *ir.Module, lt *core.Result, st *steens.Analysis, cf *andersen.Analysis) []alias.Analysis {
	ba := alias.NewBasic(m)
	sraa := alias.NewSRAA(lt)
	return []alias.Analysis{ba, sraa, alias.NewChain(ba, sraa), st, alias.NewChain(ba, cf)}
}

// counts holds aa-eval outcomes per analysis name.
type counts map[string]alias.Counts

func countsOf(rep *alias.Report) counts {
	c := counts{}
	for name, v := range rep.PerAnalysis {
		c[name] = *v
	}
	return c
}

func (c counts) add(o counts) {
	for name, v := range o {
		s := c[name]
		s.Queries += v.Queries
		s.No += v.No
		s.May += v.May
		s.Must += v.Must
		c[name] = s
	}
}

func (c counts) equal(o counts) bool {
	if len(c) != len(o) {
		return false
	}
	for name, v := range c {
		if o[name] != v {
			return false
		}
	}
	return true
}

// String renders the counts in a fixed order.
func (c counts) String() string {
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, " %s=%d/%d", name, c[name].No, c[name].Queries)
	}
	return strings.TrimSpace(sb.String())
}

// noAliasPct is the BA+LT no-alias share of all queries.
func (c counts) noAliasPct() float64 {
	v := c["BA+LT"]
	return pct(float64(v.No), float64(v.Queries))
}

// passResult is one pass over a workload's programs.
type passResult struct {
	wall    time.Duration
	alloc   uint64
	gcs     uint32
	gcPause time.Duration
	// progs holds each program's counts; failures[i] is non-empty when
	// program i errored or degraded.
	progs    []counts
	failures []string
	// stages sums stage time (ms) by layer span name: harness stage
	// timings for harness passes, span self times for traced ones;
	// stageAlloc sums the spans' allocation (MB).
	stages, stageAlloc map[string]float64
}

func newPassResult(n int) passResult {
	return passResult{progs: make([]counts, n), failures: make([]string, n), stages: map[string]float64{}}
}

func (p *passResult) total() counts {
	t := counts{}
	for _, c := range p.progs {
		t.add(c)
	}
	return t
}

// measure runs body as one pass: it starts from a collected heap, as a
// fresh process would, and records wall time, allocation and GC work.
func measure(p *passResult, body func()) {
	runtime.GC()
	g0, pause0 := gcStats()
	a0 := heapAllocBytes()
	start := time.Now()
	body()
	p.wall = time.Since(start)
	p.alloc = heapAllocBytes() - a0
	g1, pause1 := gcStats()
	p.gcs, p.gcPause = g1-g0, pause1-pause0
}

// stageSpan maps harness stage names to the layer span names.
var stageSpan = map[string]string{
	harness.StageParse:     "minic.parse",
	harness.StageLower:     "minic.lower",
	harness.StageMem2Reg:   "ssa.promote",
	harness.StageESSA:      "essa.sigmas",
	harness.StageRangesPre: "rangeanal.pre",
	harness.StageSplit:     "essa.split",
	harness.StageRanges:    "rangeanal.final",
	harness.StageLessThan:  "core.lessthan",
	harness.StageAndersen:  "andersen.solve",
	harness.StageSteens:    "steens.solve",
	harness.StageSanitize:  "sanitize.analyze",
}

// pipelineStages are the stages of Pipeline.Compile and Analyze, in
// order.
var pipelineStages = []string{
	harness.StageParse, harness.StageLower, harness.StageMem2Reg, harness.StageESSA,
	harness.StageRangesPre, harness.StageSplit, harness.StageRanges, harness.StageLessThan,
	harness.StageAndersen, harness.StageSteens,
}

// harnessPass is what `aaeval -cf -steens -jobs 1` does per program:
// harness.RunBatch compiles and analyzes it with CF and ST, then
// Result.Evaluate runs BA, LT, BA+LT, ST and BA+CF over every function.
func harnessPass(progs []program) passResult {
	items := make([]harness.BatchItem, len(progs))
	for i, p := range progs {
		items[i] = harness.BatchItem{Name: p.name, Src: p.src}
	}
	pr := newPassResult(len(progs))
	measure(&pr, func() {
		harness.RunBatch(harness.Config{WithCF: true, WithST: true, Jobs: 1}, 1, items,
			func(i int, out *harness.BatchOutcome) {
				if out.Err != nil {
					pr.failures[i] = out.Err.Error()
					return
				}
				t := time.Now()
				res := out.Res
				rep := res.Evaluate(batchAnalyses(res.Module, res.LT, res.ST, res.CF)...)
				pr.stages["alias.eval"] += ms(time.Since(t))
				pr.progs[i] = countsOf(rep)
				hr := out.Pipe.Report()
				for _, st := range hr.Timings {
					pr.stages[stageSpan[st.Stage]] += ms(st.D)
				}
				if !hr.Ok() {
					pr.failures[i] = "degraded: " + hr.Summary()
				}
			}, nil)
	})
	return pr
}

// layerCounts is the work a staged pass saw, summed over its programs.
type layerCounts struct {
	srcBytes                               int
	minicInstrs, ssaInstrs, analyzedInstrs int
	sigmas, splits                         int
	constraints, pops, vars                int
}

func countInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		f.Instrs(func(*ir.Instr) bool { n++; return true })
	}
	return n
}

// stagedPass runs a harness pass by hand: the layers' public functions,
// called in the order and with the options harness.Pipeline.Compile and
// Analyze use under a zero Config, then the same evaluation. With a
// tracer every call gets a span, one trace per program, and lc (when
// non-nil) receives the work counts; with tr nil it runs untraced.
// withPointsTo adds the Andersen and Steensgaard solves and their rows.
func stagedPass(ctx context.Context, progs []program, tr *tracer, lc *layerCounts, withPointsTo bool) passResult {
	pr := newPassResult(len(progs))
	mark := tr.mark()
	measure(&pr, func() {
		root := tr.begin("pass", 0, 0)
		for i, p := range progs {
			c, err := stagedProgram(ctx, p, tr, root, lc, withPointsTo)
			if err != nil {
				pr.failures[i] = err.Error()
			}
			pr.progs[i] = c
		}
		tr.end(root)
	})
	pr.stages, pr.stageAlloc = tr.layerTotals(mark)
	return pr
}

func stagedProgram(ctx context.Context, p program, tr *tracer, parent int, lc *layerCounts, withPointsTo bool) (counts, error) {
	// The program's trace id is the id its own span is about to get.
	trace := tr.mark() + 1
	ps := tr.begin("program", parent, trace)
	defer tr.end(ps)
	call := func(name string, body func()) {
		id := tr.begin(name, ps, trace)
		body()
		tr.end(id)
	}
	counting := lc != nil
	if !counting {
		lc = &layerCounts{}
	}
	lc.srcBytes += len(p.src)

	var prog *minic.Program
	var m *ir.Module
	var err error
	call("minic.parse", func() { prog, err = minic.ParseProgram(p.src) })
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", p.name, err)
	}
	call("minic.lower", func() { m, err = minic.LowerProgram(p.name, prog) })
	if err != nil {
		return nil, fmt.Errorf("%s: lower: %w", p.name, err)
	}
	if counting {
		lc.minicInstrs += countInstrs(m)
	}
	call("ssa.promote", func() {
		for _, f := range m.Funcs {
			ssa.Promote(f)
			if e := ssa.VerifySSA(f); e != nil && err == nil {
				err = e
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s: mem2reg: %w", p.name, err)
	}
	if counting {
		lc.ssaInstrs += countInstrs(m)
	}
	call("essa.sigmas", func() {
		for _, f := range m.Funcs {
			lc.sigmas += essa.InsertSigmas(f)
		}
	})
	var pre, ranges *rangeanal.Result
	call("rangeanal.pre", func() { pre = rangeanal.AnalyzeCtx(ctx, m, rangeanal.Opts{}) })
	call("essa.split", func() {
		for _, f := range m.Funcs {
			lc.splits += essa.SplitSubtractions(f, pre)
		}
	})
	call("rangeanal.final", func() { ranges = rangeanal.AnalyzeCtx(ctx, m, rangeanal.Opts{}) })
	if counting {
		lc.analyzedInstrs += countInstrs(m)
	}
	var lt *core.Result
	call("core.lessthan", func() { lt = core.AnalyzeCtx(ctx, m, ranges, core.Options{Recover: true, Workers: 1}) })
	lc.constraints += lt.Stats.Constraints
	lc.pops += lt.Stats.Pops
	lc.vars += lt.Stats.Vars
	if e := firstErr(pre.Err(), ranges.Err()); e != nil {
		return nil, fmt.Errorf("%s: ranges degraded: %w", p.name, e)
	}
	if len(lt.Degraded) > 0 {
		return nil, fmt.Errorf("%s: less-than degraded on %v", p.name, lt.DegradedFuncs())
	}

	var rep *alias.Report
	if !withPointsTo {
		call("alias.eval", func() {
			ba := alias.NewBasic(m)
			sraa := alias.NewSRAA(lt)
			rep = alias.Evaluate(m, ba, sraa, alias.NewChain(ba, sraa))
		})
		return countsOf(rep), nil
	}
	var cf *andersen.Analysis
	var st *steens.Analysis
	call("andersen.solve", func() { cf = andersen.AnalyzeCtx(ctx, m, andersen.Opts{}) })
	call("steens.solve", func() { st = steens.AnalyzeCtx(ctx, m, steens.Opts{}) })
	if e := firstErr(cf.Degraded(), st.Degraded()); e != nil {
		return nil, fmt.Errorf("%s: points-to degraded: %w", p.name, e)
	}
	call("alias.eval", func() { rep = alias.Evaluate(m, batchAnalyses(m, lt, st, cf)...) })
	return countsOf(rep), nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// runBatch runs a batch workload: passes back to back, one caller, for
// opt.seconds (at least one pass). Every pass is timed, the first
// included: a batch user pays it on every run.
func runBatch(ctx context.Context, w workload, opt runOpts) (*outcome, error) {
	o := newOutcome()
	var progs []program
	setups := make([]float64, setupReps)
	for r := range setups {
		// Each repetition starts from a collected heap, so the previous
		// one's garbage does not land a collection in this one.
		runtime.GC()
		t := time.Now()
		progs = batchPrograms(w.name, opt.seed, opt.smoke)
		setups[r] = time.Since(t).Seconds()
	}
	if w.name == "batch-corpus" {
		o.infof("seed does not apply: the corpus is fixed")
	}

	var ref counts
	if opt.trace {
		ref = batchTraced(ctx, o, progs, opt)
	} else {
		ref = batchTimed(o, progs, opt)
		o.e2e["setup_s"] = median(setups)
		o.e2e["peak_rss_mb"] = peakRSSMB()
	}
	o.infof("queries %s", ref)
	checkExpected(o, w.name, opt, ref)
	for _, p := range progs {
		if p.soundcheck {
			checkSoundness(o, p)
		}
	}
	return o, nil
}

// judgePasses counts every program of every pass as attempted and
// fails those that errored, degraded or answered differently from the
// first pass. It returns the first pass's totals.
func judgePasses(o *outcome, progs []program, passes []passResult) counts {
	first := passes[0]
	for n, p := range passes {
		for i := range p.progs {
			o.attempted++
			switch {
			case p.failures[i] != "":
				o.failed++
				o.problemf("pass %d %s: %s", n, progs[i].name, p.failures[i])
			case !p.progs[i].equal(first.progs[i]):
				o.failed++
				o.problemf("pass %d %s: counts %s differ from the first pass's %s", n, progs[i].name, p.progs[i], first.progs[i])
			}
		}
	}
	return first.total()
}

func batchTimed(o *outcome, progs []program, opt runOpts) counts {
	var passes []passResult
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < opt.seconds {
		passes = append(passes, harnessPass(progs))
	}
	ref := judgePasses(o, progs, passes)

	walls := make([]float64, len(passes))
	allocs := make([]float64, len(passes))
	busy := 0.0
	for i, p := range passes {
		walls[i] = ms(p.wall)
		allocs[i] = mb(p.alloc)
		busy += p.wall.Seconds()
	}
	o.e2e["latency_p50_ms"] = median(walls)
	o.e2e["latency_p90_ms"] = percentile(walls, 90)
	o.e2e["throughput_per_s"] = float64(len(progs)*len(passes)) / busy
	o.e2e["goodput_pct"] = pct(float64(o.attempted-o.failed), float64(o.attempted))
	o.e2e["alloc_mb"] = median(allocs)
	o.e2e["noalias_pct"] = ref.noAliasPct()
	q1, q3 := quartiles(walls)
	o.infof("pass_ms median %.1f q1 %.1f q3 %.1f over %d passes of %d programs (p90 of 10 or fewer passes is the slowest)",
		median(walls), q1, q3, len(passes), len(progs))
	return ref
}

// A staged layer's self time agrees with the harness timing of the
// same stage when they differ by at most agreeTolerance of the
// harness's time or agreeFloor of the harness pass: a collection cycle
// lands in different stages on different passes, which moves short
// stages by more than 15% without misattributing anything.
const (
	agreeTolerance = 0.15
	agreeFloor     = 0.05
)

// batchTraced alternates three kinds of pass until opt.seconds have
// passed: the harness pass (untraced), the staged pass untraced, and
// the staged pass traced. Layer metrics come from the traced passes;
// the other two give the harness and tracing overheads and the
// references the staged pass is checked against.
func batchTraced(ctx context.Context, o *outcome, progs []program, opt runOpts) counts {
	tr := newTracer()
	o.tr = tr
	var hs, s0s, s1s []passResult
	var lc layerCounts
	start := time.Now()
	for len(s1s) == 0 || time.Since(start) < opt.seconds {
		hs = append(hs, harnessPass(progs))
		s0s = append(s0s, stagedPass(ctx, progs, nil, nil, true))
		lc = layerCounts{}
		s1s = append(s1s, stagedPass(ctx, progs, tr, &lc, true))
	}
	ref := judgePasses(o, progs, hs)
	// The staged pass must produce the harness pass's answers exactly.
	for n, p := range append(s0s, s1s...) {
		for i := range p.progs {
			switch {
			case p.failures[i] != "":
				o.problemf("staged pass %d %s: %s", n, progs[i].name, p.failures[i])
			case !p.progs[i].equal(hs[0].progs[i]):
				o.problemf("staged pass %d %s: counts %s differ from the harness pass's %s",
					n, progs[i].name, p.progs[i], hs[0].progs[i])
			}
		}
	}

	h, s0, s1 := medianWall(hs), medianWall(s0s), medianWall(s1s)
	layerFromPasses(o, s1s, float64(lc.analyzedInstrs))
	setCounts(o, lc, ref)
	o.layer["alias.noalias_pct.ba_cf"] = pct(float64(ref["BA+CF"].No), float64(ref["BA+CF"].Queries))
	o.layer["alias.noalias_pct.st"] = pct(float64(ref["ST"].No), float64(ref["ST"].Queries))
	o.layer["harness.overhead_pct"] = pct(h-s0, s0)
	o.layer["trace.overhead_pct"] = pct(s1-s0, s0)
	gcFromPasses(o, hs)
	o.infof("traced: %d rounds; pass_ms harness %.1f staged %.1f staged+traced %.1f", len(s1s), h, s0, s1)

	// The staged pass should spend its time where the harness does. A
	// disagreement is flagged, not failed: it is a timing, and a busy
	// host can move one stage of one pass past any tolerance, while the
	// answers above are what must be exact.
	for _, st := range pipelineStages {
		name := stageSpan[st]
		hv := stageMedian(hs, name)
		sv := o.layer[name+".ms"]
		agree := math.Abs(sv-hv) <= max(agreeTolerance*hv, agreeFloor*h)
		o.infof("stage %-10s harness %9.1f ms staged %9.1f ms agree=%t", st, hv, sv, agree)
		if !agree {
			o.infof("FLAGGED: stage %s: staged self time %.1f ms is not within %.0f%% of the harness's %.1f ms or %.0f%% of its pass",
				st, sv, 100*agreeTolerance, hv, 100*agreeFloor)
		}
	}
	return ref
}

func medianWall(ps []passResult) float64 {
	w := make([]float64, len(ps))
	for i, p := range ps {
		w[i] = ms(p.wall)
	}
	return median(w)
}

func stageMedian(ps []passResult, name string) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = p.stages[name]
	}
	return median(v)
}

// layerFromPasses sets every layer's .ms metric to the median over the
// traced passes of its self time per pass, and .alloc_mb likewise.
func layerFromPasses(o *outcome, traced []passResult, analyzedInstrs float64) {
	for _, name := range layerSpans {
		o.layer[name+".ms"] = stageMedian(traced, name)
		allocs := make([]float64, len(traced))
		for i, p := range traced {
			allocs[i] = p.stageAlloc[name]
		}
		o.layer[name+".alloc_mb"] = median(allocs)
	}
	if analyzedInstrs > 0 {
		o.layer["rangeanal.us_per_instr"] = 1000 * (o.layer["rangeanal.pre.ms"] + o.layer["rangeanal.final.ms"]) / analyzedInstrs
	}
}

// setCounts records a traced pass's work counts and the ratios built
// on them.
func setCounts(o *outcome, lc layerCounts, ref counts) {
	l := o.layer
	l["minic.instrs"] = float64(lc.minicInstrs)
	l["ssa.instrs"] = float64(lc.ssaInstrs)
	l["essa.sigmas.count"] = float64(lc.sigmas)
	l["essa.split.count"] = float64(lc.splits)
	l["core.constraints"] = float64(lc.constraints)
	l["core.pops"] = float64(lc.pops)
	l["core.vars"] = float64(lc.vars)
	if lc.constraints > 0 {
		l["core.pops_per_constraint"] = float64(lc.pops) / float64(lc.constraints)
	}
	if l["minic.parse.ms"] > 0 {
		l["minic.parse.mb_per_s"] = mb(uint64(lc.srcBytes)) / (l["minic.parse.ms"] / 1000)
	}
	q := ref["BA+LT"].Queries
	l["alias.queries"] = float64(q)
	if l["alias.eval.ms"] > 0 {
		l["alias.queries_per_ms"] = float64(q) / l["alias.eval.ms"]
	}
	l["alias.noalias_pct.ba"] = pct(float64(ref["BA"].No), float64(ref["BA"].Queries))
	l["alias.noalias_pct.ba_lt"] = ref.noAliasPct()
}

// gcFromPasses records the median collector work per untraced pass.
func gcFromPasses(o *outcome, ps []passResult) {
	cycles := make([]float64, len(ps))
	pauses := make([]float64, len(ps))
	for i, p := range ps {
		cycles[i] = float64(p.gcs)
		pauses[i] = ms(p.gcPause)
	}
	o.layer["go.gc_cycles"] = median(cycles)
	o.layer["go.gc_pause_ms"] = median(pauses)
}
