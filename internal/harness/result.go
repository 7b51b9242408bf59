package harness

import (
	"sync"

	"repro/internal/alias"
	"repro/internal/andersen"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/pdg"
	"repro/internal/rangeanal"
	"repro/internal/sanitize"
	"repro/internal/steens"
)

// Result bundles the hardened pipeline's outputs. Unlike
// core.Prepared it is never nil-fielded: failed stages leave sound
// conservative stand-ins (⊤ ranges, empty LT sets, MayAlias CF), so
// every downstream client keeps running.
type Result struct {
	Module *ir.Module
	Ranges *rangeanal.Result
	LT     *core.Result
	// CF is the Andersen analysis; nil unless Config.WithCF.
	CF *andersen.Analysis
	// ST is the Steensgaard analysis; nil unless Config.WithST.
	ST *steens.Analysis

	p *Pipeline
}

// Evaluate runs the aa-eval protocol with each function inside its
// own containment region: a panic while evaluating one function
// (broken IR, a crashing analysis) records a StageFailure and counts
// all of that function's pointer pairs as MayAlias — the queries still
// appear in the totals, claiming nothing. Quarantined functions take
// the MayAlias path directly, without traversing their bodies'
// instruction lists beyond pointer enumeration.
func (r *Result) Evaluate(analyses ...alias.Analysis) *alias.Report {
	p := r.p
	m := r.Module
	plan := alias.NewPlan(analyses...)
	// Per-function slots: workers fill them, the calling goroutine
	// merges in module function order (see parallel.go).
	type slot struct {
		fails    []StageFailure
		degraded bool
	}
	slots := make([]slot, len(m.Funcs))
	// Each worker evaluates into one scratch report, zeroed before
	// every function and again before the MayAlias fallback, so a
	// contained panic leaves none of the function's tallies behind, and
	// adds each finished function to its own total. Counts are sums, so
	// the totals do not depend on which worker took which function.
	evalOne := func(i int, f *ir.Func, w *alias.Workspace, scratch, total *alias.Report) {
		s := &slots[i]
		zeroCounts(scratch)
		mayOnly := p.skip[f]
		if !mayOnly {
			if fail := p.contain(StageAliasEval, f.FName, true, func() {
				w.EvaluateFunc(f, scratch)
			}); fail != nil {
				s.fails = append(s.fails, *fail)
				s.degraded = true
				zeroCounts(scratch)
				mayOnly = true
			}
		}
		if mayOnly {
			// A quarantined function's IR may be broken; even
			// enumeration runs contained.
			if fail := p.contain(StageAliasEval, f.FName, false, func() {
				alias.MayAliasOnly(f, scratch, analyses...)
			}); fail != nil {
				s.fails = append(s.fails, *fail)
			}
		}
		total.Add(scratch)
	}

	// One workspace, scratch report and total per goroutine: the plan
	// is shared, buffers are not.
	jobs := min(p.jobs(), len(m.Funcs))
	totals := make([]*alias.Report, max(jobs, 1))
	for k := range totals {
		totals[k] = alias.NewReport(m.Name, analyses...)
	}
	if jobs <= 1 {
		w, scratch := plan.NewWorkspace(), alias.NewReport(m.Name, analyses...)
		for i, f := range m.Funcs {
			evalOne(i, f, w, scratch, totals[0])
		}
	} else {
		ch := make(chan int)
		var wg sync.WaitGroup
		for _, total := range totals {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws, scratch := plan.NewWorkspace(), alias.NewReport(m.Name, analyses...)
				for i := range ch {
					evalOne(i, m.Funcs[i], ws, scratch, total)
				}
			}()
		}
		for i := range m.Funcs {
			ch <- i
		}
		close(ch)
		wg.Wait()
	}

	for i, f := range m.Funcs {
		s := &slots[i]
		for _, sf := range s.fails {
			p.rep.addFailure(sf)
		}
		if s.degraded {
			p.rep.markDegraded(f.FName, StageAliasEval)
		}
	}
	rep := alias.NewReport(m.Name, analyses...)
	for _, total := range totals {
		rep.Add(total)
	}
	return rep
}

// zeroCounts zeroes rep's counts in place.
func zeroCounts(rep *alias.Report) {
	for _, name := range rep.Order {
		*rep.PerAnalysis[name] = alias.Counts{}
	}
}

// Sanitize runs the memory-safety sanitizer over the pipeline's
// results, under the same hardening discipline as the less-than
// stage: per-function panics and budget exhaustion are contained
// inside the sanitizer (Options.Recover / BudgetFor), quarantined
// functions are skipped, and failures are forwarded into the run
// report. The returned report is never nil: total failure degrades to
// an empty report, which claims nothing about any access.
func (r *Result) Sanitize() *sanitize.Report {
	p := r.p
	defer p.timeStage(StageSanitize)()
	opt := sanitize.Options{
		Recover: true,
		Skip:    p.skip,
		Budget:  budget.Spec{Timeout: p.cfg.Timeout, MaxSteps: p.cfg.MaxSteps},
		BudgetFor: func(f *ir.Func) budget.Spec {
			return p.spec(StageSanitize, f.FName)
		},
		OnFunc:  func(f *ir.Func) { p.maybeFault(StageSanitize, f.FName) },
		Workers: p.jobs(),
	}

	// guardBare: fault injection goes through OnFunc, per function.
	var rep *sanitize.Report
	p.guardBare(StageSanitize, "", func() {
		rep = sanitize.AnalyzeCtx(p.ctx, r.Module, r.Ranges, r.LT, opt)
	})
	if rep == nil {
		rep = &sanitize.Report{Degraded: map[*ir.Func]string{}}
	}
	for _, ff := range rep.Failures {
		p.rep.addFailure(StageFailure{
			Stage: StageSanitize, Func: ff.Fn,
			Cause: ff.Cause, Value: ff.Value, Stack: ff.Stack,
		})
	}
	for f, cause := range rep.Degraded {
		if cause != "skipped" {
			p.rep.markDegraded(f.FName, StageSanitize)
		}
	}
	return rep
}

// PDG builds the program dependence graph under containment. On
// failure it returns nil and the recorded StageFailure; callers in
// non-strict pipelines treat a nil graph as "no PDG information".
func (r *Result) PDG(aa alias.Analysis) (*pdg.Graph, error) {
	p := r.p
	defer p.timeStage(StagePDG)()
	var g *pdg.Graph
	fail := p.guard(StagePDG, "", func() {
		g = pdg.Build(r.Module, aa)
	})
	if fail != nil {
		return nil, fail
	}
	return g, nil
}

// Degraded reports whether fn runs on conservative answers.
func (r *Result) Degraded(fn string) bool {
	return len(r.p.rep.DegradedBy(fn)) > 0
}
