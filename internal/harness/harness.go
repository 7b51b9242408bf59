// Package harness is the hardened driver for the full analysis
// pipeline. The analyses themselves (internal/core, internal/rangeanal,
// internal/andersen) aim for the fixed points the paper describes;
// the harness makes running them safe on hostile or pathological
// input: every stage executes inside a containment region that
// converts panics into structured StageFailure records, every solver
// runs under a configurable budget (wall clock, context cancellation,
// step count), and anything that fails degrades to a sound
// conservative answer — empty LT sets, ⊤ ranges, MayAlias — instead
// of taking down the process or poisoning other functions' results.
//
// Containment unit. Transform stages (mem2reg, sigma insertion,
// subtraction splitting) mutate one function at a time, so a crash
// can leave that function's IR half-rewritten. The harness therefore
// quarantines the function: it is added to a skip set, later analysis
// stages never traverse its body, and calls to it are treated like
// calls to external code — the sound over-approximation. Analysis
// stages never mutate the IR, so their failures only discard the
// failing stage's information.
//
// Fault injection. FaultConfig deliberately breaks one stage on one
// function (panic at stage entry) or starves a solver after N steps
// (budget exhaustion), which is how the test suite proves the
// containment and soundness claims rather than asserting them.
package harness

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/andersen"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/essa"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/rangeanal"
	"repro/internal/ssa"
	"repro/internal/steens"
)

// Stage names, in pipeline order.
const (
	StageParse     = "parse"
	StageLower     = "lower"
	StageMem2Reg   = "mem2reg"
	StageESSA      = "essa"
	StageRangesPre = "ranges-pre"
	StageSplit     = "split"
	StageRanges    = "ranges"
	StageLessThan  = "lessthan"
	StageAndersen  = "andersen"
	StageSteens    = "steens"
	StageAliasEval = "aliaseval"
	StagePDG       = "pdg"
	StageSanitize  = "sanitize"
)

// FaultConfig injects one deliberate failure, for testing the
// containment machinery end to end.
type FaultConfig struct {
	// Stage selects which stage fails (a Stage* constant).
	Stage string
	// Func restricts the fault to the named function; empty matches
	// every function (and module-scope stages).
	Func string
	// AfterSteps, when positive, starves the stage's solver budget
	// after that many worklist steps instead of panicking at entry.
	// Only solver stages (ranges-pre, ranges, lessthan, andersen)
	// consume steps.
	AfterSteps int
}

func (fc *FaultConfig) matches(stage, fn string) bool {
	if fc == nil || fc.Stage != stage {
		return false
	}
	return fc.Func == "" || fc.Func == fn
}

// Config declares how hard the pipeline may try and what it runs.
type Config struct {
	// Timeout is the wall-clock allowance per stage (module-scope
	// stages) or per function (the less-than solver); 0 means none.
	Timeout time.Duration
	// MaxSteps caps each solver run's worklist steps; 0 means none.
	MaxSteps int
	// Strict aborts on the first contained failure instead of
	// degrading: Compile/Analyze return the failure as an error.
	Strict bool

	// NoESSA, Interprocedural and Analysis mirror
	// core.PipelineOptions: which variant of the paper's pipeline to
	// run.
	NoESSA          bool
	Interprocedural bool
	Analysis        core.Options

	// WithCF additionally runs the Andersen-style CF analysis.
	WithCF bool

	// WithST additionally runs the Steensgaard-style unification
	// analysis.
	WithST bool

	// Jobs fans the per-function stages out across a bounded worker
	// pool; 0 or 1 runs them serially. Results and reports are merged
	// in module function order and are byte-identical at any value
	// (see parallel.go).
	Jobs int
	// Cache, when non-nil, memoizes per-function less-than solves by
	// content hash (see cache.go). It may be shared across pipelines.
	// Budgeted and fault-injected runs bypass it unless CacheBudgeted
	// is set.
	Cache *Cache
	// CacheBudgeted lets a budgeted run consult the cache. Stores are
	// safe either way — core only exports artifacts of solves that
	// completed without exhaustion — but a lookup may serve a complete
	// artifact where this run's budget would have degraded, so the
	// answer can be strictly more precise than an uncached run's
	// (never less sound). Long-running servers want exactly that:
	// per-request budgets and a shared warm cache. Batch drivers that
	// prove byte-identical serial/parallel/cached reports leave it
	// unset. Fault-injected runs always bypass the cache.
	CacheBudgeted bool

	// Fault injects one deliberate failure (tests only).
	Fault *FaultConfig
}

// Pipeline drives one module through the hardened pipeline. It is
// single-module and single-use: create one per module so the Report
// describes exactly one run.
type Pipeline struct {
	cfg Config
	ctx context.Context
	rep *Report
	// skip holds functions quarantined by a transform-stage failure:
	// their IR may be invalid, so no later stage may traverse them.
	skip map[*ir.Func]bool
}

// New creates a pipeline under context.Background.
func New(cfg Config) *Pipeline { return NewCtx(context.Background(), cfg) }

// NewCtx creates a pipeline whose solver budgets also observe ctx.
func NewCtx(ctx context.Context, cfg Config) *Pipeline {
	return &Pipeline{cfg: cfg, ctx: ctx, rep: &Report{}, skip: map[*ir.Func]bool{}}
}

// Report returns the accumulated run report.
func (p *Pipeline) Report() *Report { return p.rep }

// spec is the budget for one stage, honoring an AfterSteps fault
// aimed at it.
func (p *Pipeline) spec(stage, fn string) budget.Spec {
	s := budget.Spec{Timeout: p.cfg.Timeout, MaxSteps: p.cfg.MaxSteps}
	if fc := p.cfg.Fault; fc != nil && fc.AfterSteps > 0 && fc.matches(stage, fn) {
		s.MaxSteps = fc.AfterSteps
	}
	return s
}

// maybeFault panics when a panic-mode fault targets (stage, fn). It
// is called inside containment regions only.
func (p *Pipeline) maybeFault(stage, fn string) {
	if fc := p.cfg.Fault; fc != nil && fc.AfterSteps == 0 && fc.matches(stage, fn) {
		panic(fmt.Sprintf("injected fault: stage=%s func=%s", stage, fn))
	}
}

// contain runs body inside a containment region and returns a panic
// as a StageFailure WITHOUT recording it. It is the primitive the
// worker pools build on: workers must not append to the shared report
// (a data race, and completion order would leak into it), so they
// capture into per-function slots and the calling goroutine records
// everything in module function order after the pool drains. faultable
// selects whether the fault-injection hook fires; fallback paths pass
// false so a fault injected into the primary attempt does not fire a
// second time while computing the degraded substitute.
func (p *Pipeline) contain(stage, fn string, faultable bool, body func()) (fail *StageFailure) {
	defer func() {
		if r := recover(); r != nil {
			fail = &StageFailure{
				Stage: stage, Func: fn, Cause: "panic",
				Value: fmt.Sprint(r), Stack: string(debug.Stack()),
			}
		}
	}()
	if faultable {
		p.maybeFault(stage, fn)
	}
	body()
	return nil
}

// guard runs body inside a containment region and converts a panic
// into a recorded StageFailure, which it returns (nil on success).
// Serial callers only; worker pools use contain directly.
func (p *Pipeline) guard(stage, fn string, body func()) *StageFailure {
	fail := p.contain(stage, fn, true, body)
	if fail != nil {
		p.rep.addFailure(*fail)
	}
	return fail
}

// guardBare is guard without the fault-injection hook: fallback paths
// use it so a fault injected into the primary attempt does not fire a
// second time while recording the degraded substitute.
func (p *Pipeline) guardBare(stage, fn string, body func()) *StageFailure {
	fail := p.contain(stage, fn, false, body)
	if fail != nil {
		p.rep.addFailure(*fail)
	}
	return fail
}

// fail records a non-panic stage failure.
func (p *Pipeline) fail(stage, fn, cause string, err error) *StageFailure {
	f := &StageFailure{Stage: stage, Func: fn, Cause: cause, Value: err.Error()}
	p.rep.addFailure(*f)
	return f
}

// budgetCause classifies a solver exhaustion error: a context
// cancellation (user interrupt, upstream deadline) is recorded as
// "canceled", genuine budget exhaustion as "budget". Checkpointing
// drivers must not journal canceled runs, and quarantine statistics
// must not count them as degradations of the input.
func budgetCause(err error) string {
	if budget.Canceled(err) {
		return "canceled"
	}
	return "budget"
}

// timeStage appends a timing entry; callers defer it at stage start.
func (p *Pipeline) timeStage(stage string) func() {
	start := time.Now()
	return func() {
		p.rep.Timings = append(p.rep.Timings, StageTiming{Stage: stage, D: time.Since(start)})
	}
}

// quarantine marks f as broken: later stages skip its body and treat
// calls to it as external.
func (p *Pipeline) quarantine(f *ir.Func, stage string) {
	p.skip[f] = true
	p.rep.markDegraded(f.FName, stage)
}

// strictErr returns fail when strict mode promotes it to an abort.
func (p *Pipeline) strictErr(fail *StageFailure) error {
	if fail != nil && p.cfg.Strict {
		return fail
	}
	return nil
}

// Compile runs the hardened frontend: parse, lower to SSA form, then
// a per-function check of the SSA dominance property (the mem2reg
// stage). Parse and lower failures (including contained panics, and
// faults of the SSA construction that ends each function's lowering)
// are fatal for the module — there is nothing to degrade to — and are
// returned as errors, never as raw panics. A mem2reg failure
// quarantines only the affected function unless Strict is set.
func (p *Pipeline) Compile(name, src string) (*ir.Module, error) {
	var prog *minic.Program
	done := p.timeStage(StageParse)
	fail := p.guard(StageParse, "", func() {
		pr, err := minic.ParseProgram(src)
		if err != nil {
			panic(err)
		}
		prog = pr
	})
	done()
	if fail != nil {
		return nil, fail
	}

	var m *ir.Module
	done = p.timeStage(StageLower)
	fail = p.guard(StageLower, "", func() {
		mod, err := minic.LowerProgram(name, prog)
		if err != nil {
			panic(err)
		}
		m = mod
	})
	done()
	if fail != nil {
		return nil, fail
	}

	fail = p.runFuncStage(StageMem2Reg, m, func(f *ir.Func) {
		if err := ssa.VerifySSA(f); err != nil {
			panic(err)
		}
	})
	if err := p.strictErr(fail); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseIR runs the hardened textual-IR frontend.
func (p *Pipeline) ParseIR(src string) (*ir.Module, error) {
	var m *ir.Module
	done := p.timeStage(StageParse)
	fail := p.guard(StageParse, "", func() {
		mod, err := ir.Parse(src)
		if err != nil {
			panic(err)
		}
		m = mod
	})
	done()
	if fail != nil {
		return nil, fail
	}
	return m, nil
}

// Analyze runs the hardened analysis pipeline over m (the order of
// core.Prepare: sigma insertion, a pre-range pass, subtraction
// splitting, the final range pass, the less-than solve, and
// optionally Andersen's analysis). The returned error is non-nil only
// in strict mode; otherwise every failure degrades and the Result is
// always usable.
func (p *Pipeline) Analyze(m *ir.Module) (*Result, error) {
	res := &Result{Module: m, p: p}

	if !p.cfg.NoESSA {
		fail := p.runFuncStage(StageESSA, m, func(f *ir.Func) { essa.InsertSigmas(f) })
		if err := p.strictErr(fail); err != nil {
			return res, err
		}

		var oracle essa.RangeOracle
		if !p.cfg.Analysis.NoRanges {
			pre, err := p.runRanges(StageRangesPre, m)
			if p.cfg.Strict && err != nil {
				return res, err
			}
			oracle = pre
		}

		// SplitSubtractions only reads the shared oracle (interval
		// lookups on an immutable result), so sharding is safe.
		fail = p.runFuncStage(StageSplit, m, func(f *ir.Func) { essa.SplitSubtractions(f, oracle) })
		if err := p.strictErr(fail); err != nil {
			return res, err
		}
	}

	ranges, err := p.runRanges(StageRanges, m)
	if p.cfg.Strict && err != nil {
		return res, err
	}
	res.Ranges = ranges

	lt, err := p.runLessThan(m, ranges)
	if p.cfg.Strict && err != nil {
		return res, err
	}
	res.LT = lt

	if p.cfg.WithCF {
		cf, err := p.runAndersen(m)
		if p.cfg.Strict && err != nil {
			return res, err
		}
		res.CF = cf
	}

	if p.cfg.WithST {
		st, err := p.runSteens(m)
		if p.cfg.Strict && err != nil {
			return res, err
		}
		res.ST = st
	}
	return res, nil
}

// runRanges is the module-scope range stage. A panic degrades to the
// all-⊤ empty result; budget exhaustion during the ascending phase
// already degrades inside the solver (see rangeanal.AnalyzeCtx) and
// is recorded here.
func (p *Pipeline) runRanges(stage string, m *ir.Module) (*rangeanal.Result, error) {
	defer p.timeStage(stage)()
	var r *rangeanal.Result
	fail := p.guard(stage, "", func() {
		r = rangeanal.AnalyzeCtx(p.ctx, m, rangeanal.Opts{
			Budget: p.spec(stage, ""),
			Skip:   p.skip,
		})
	})
	if fail == nil && r.Err() != nil {
		fail = p.fail(stage, "", budgetCause(r.Err()), r.Err())
	}
	if r == nil {
		r = rangeanal.Empty()
	}
	return r, p.strictErr(fail)
}

// runLessThan is the less-than stage. Per-function panics and budget
// exhaustion are contained inside core (Options.Recover / Budget);
// the harness forwards core's failure records into the report and
// additionally guards the whole call.
func (p *Pipeline) runLessThan(m *ir.Module, ranges *rangeanal.Result) (*core.Result, error) {
	defer p.timeStage(StageLessThan)()
	opt := p.cfg.Analysis
	opt.Recover = true
	opt.Skip = p.skip
	opt.Budget = budget.Spec{Timeout: p.cfg.Timeout, MaxSteps: p.cfg.MaxSteps}
	opt.BudgetFor = func(f *ir.Func) budget.Spec { return p.spec(StageLessThan, f.FName) }
	opt.OnFunc = func(f *ir.Func) { p.maybeFault(StageLessThan, f.FName) }
	opt.Workers = p.jobs()
	if p.cacheEnabled() {
		opt.Memo = p.cfg.Cache
		keyOpt := p.cfg.Analysis
		opt.MemoKey = func(f *ir.Func) string { return funcKey(f, ranges, keyOpt) }
	}

	// guardBare: fault injection for this stage goes through OnFunc,
	// per function, not through the module-level guard.
	var lt *core.Result
	fail := p.guardBare(StageLessThan, "", func() {
		if p.cfg.Interprocedural {
			lt = core.AnalyzeInterprocCtx(p.ctx, m, ranges, opt)
		} else {
			lt = core.AnalyzeCtx(p.ctx, m, ranges, opt)
		}
	})
	if lt == nil {
		lt = core.Empty()
	}
	var firstContained *StageFailure
	for _, ff := range lt.Failures {
		sf := StageFailure{
			Stage: StageLessThan, Func: ff.Fn,
			Cause: ff.Cause, Value: ff.Value, Stack: ff.Stack,
		}
		p.rep.addFailure(sf)
		if firstContained == nil {
			first := sf
			firstContained = &first
		}
	}
	for f, cause := range lt.Degraded {
		if cause != "skipped" { // skip-set entries are already recorded
			p.rep.markDegraded(f.FName, StageLessThan)
		}
	}
	if fail == nil {
		fail = firstContained
	}
	return lt, p.strictErr(fail)
}

// runAndersen is the CF stage. A panic degrades to the Unanalyzed
// (MayAlias-everywhere) result; budget exhaustion is detected by the
// solver itself, which flags the Analysis degraded.
func (p *Pipeline) runAndersen(m *ir.Module) (*andersen.Analysis, error) {
	defer p.timeStage(StageAndersen)()
	var cf *andersen.Analysis
	fail := p.guard(StageAndersen, "", func() {
		cf = andersen.AnalyzeCtx(p.ctx, m, andersen.Opts{
			Budget: p.spec(StageAndersen, ""),
			Skip:   p.skip,
		})
	})
	if fail == nil && cf.Degraded() != nil {
		fail = p.fail(StageAndersen, "", budgetCause(cf.Degraded()), cf.Degraded())
	}
	if cf == nil {
		cf = andersen.Unanalyzed(fail)
	}
	return cf, p.strictErr(fail)
}

// runSteens is the ST stage. A panic degrades to the Unanalyzed
// (MayAlias-everywhere) result; budget exhaustion is detected by the
// unifier itself, which flags the Analysis degraded.
func (p *Pipeline) runSteens(m *ir.Module) (*steens.Analysis, error) {
	defer p.timeStage(StageSteens)()
	var st *steens.Analysis
	fail := p.guard(StageSteens, "", func() {
		st = steens.AnalyzeCtx(p.ctx, m, steens.Opts{
			Budget: p.spec(StageSteens, ""),
			Skip:   p.skip,
		})
	})
	if fail == nil && st.Degraded() != nil {
		fail = p.fail(StageSteens, "", budgetCause(st.Degraded()), st.Degraded())
	}
	if st == nil {
		st = steens.Unanalyzed(fail)
	}
	return st, p.strictErr(fail)
}

// CompileAndAnalyze is the one-call convenience the drivers use.
func (p *Pipeline) CompileAndAnalyze(name, src string) (*Result, error) {
	m, err := p.Compile(name, src)
	if err != nil {
		return nil, err
	}
	return p.Analyze(m)
}

// Skipped reports whether f was quarantined by a transform failure.
func (p *Pipeline) Skipped(f *ir.Func) bool { return p.skip[f] }
