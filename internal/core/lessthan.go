// Package core implements the paper's contribution: the sparse strict
// less-than analysis of Section 3 and the pointer disambiguation
// criteria of Definition 3.11.
//
// For every SSA variable x (integer or pointer — the analysis works
// uniformly on scalars), the analysis computes a set LT(x) of
// variables known to hold values strictly less than x whenever both
// are alive. Constraints are generated from the e-SSA form
// (internal/essa) by the rules of Figure 7, using interval ranges
// (internal/rangeanal) to classify additions whose operands are not
// constants, and solved by a descending worklist over the lattice
// (P(V), ⊆, ∩): sets start at V (conceptually; the solver never
// materializes it) and only shrink, so the paper's termination
// argument (Lemma 3.6, Theorem 3.7) carries over directly. LT sets are
// internal/bitvec sets over variable indices, hash-consed so the many
// variables with equal sets share one instance.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/budget"
	"repro/internal/ir"
	"repro/internal/rangeanal"
)

// Options selects analysis variants. The zero value is the
// configuration evaluated in the paper.
type Options struct {
	// NoRanges disables the use of interval ranges when classifying
	// additions with variable operands (ablation: only constant
	// operands are classified, as in Bodik et al.'s ABCD).
	NoRanges bool
	// NonStrict additionally propagates LT sets through provably
	// non-negative additions (x1 = x2 + n, n >= 0 implies
	// LT(x2) ⊆ LT(x1)), a sound extension beyond Figure 7.
	NonStrict bool

	// Budget bounds each function's constraint generation and solve.
	// An exhausted function degrades to the sound empty result (no LT
	// claims) and is recorded in Result.Degraded.
	Budget budget.Spec
	// BudgetFor, when non-nil, overrides Budget per function. The
	// harness uses it for fault injection (starving one function) and
	// tiered budgets.
	BudgetFor func(*ir.Func) budget.Spec
	// Recover converts a panic during one function's analysis into a
	// FuncFailure with the empty degraded result instead of crashing
	// the whole run.
	Recover bool
	// Skip lists functions to exclude from analysis entirely; they
	// get the empty degraded result. The harness passes functions
	// already broken by an upstream stage failure.
	Skip map[*ir.Func]bool
	// OnFunc, when non-nil, runs at the start of each function's
	// analysis inside the protected region; the harness's fault
	// injection panics here.
	OnFunc func(*ir.Func)

	// Workers fans the per-function solves out across a bounded pool
	// of goroutines; 0 or 1 runs them serially on the calling
	// goroutine. Results are merged in module function order, so the
	// assembled Result — sets, statistics, failure list — is
	// identical whatever the pool width. With Workers > 1 a panic in
	// one function's solve is always captured on its worker (a bare
	// panic would kill the process regardless of Recover); when
	// Recover is unset the first captured panic, in module function
	// order, is re-raised on the calling goroutine after the pool
	// drains, preserving the serial contract deterministically.
	Workers int
	// Memo, set together with MemoKey, memoizes per-function solves:
	// a Lookup hit replaces the solve with an artifact rebind, and
	// every completed (non-degraded) solve is Stored. See memo.go.
	Memo Memo
	// MemoKey fingerprints every input of one function's solve except
	// the inter-procedural seeds, which the analysis appends itself.
	// Returning "" disables memoization for that function.
	MemoKey func(*ir.Func) string
}

// budgetFor resolves the effective budget spec for f.
func (o Options) budgetFor(f *ir.Func) budget.Spec {
	if o.BudgetFor != nil {
		return o.BudgetFor(f)
	}
	return o.Budget
}

// FuncFailure describes one function whose analysis was contained
// rather than completed: a recovered panic, an exhausted budget, or a
// canceled run.
type FuncFailure struct {
	// Fn is the function's name.
	Fn string
	// Cause is "panic", "budget", or "canceled" (the run's context
	// was canceled — the function itself is fine).
	Cause string
	// Value is the recovered panic value or the budget error text.
	Value string
	// Stack is the recovered goroutine stack for panic causes.
	Stack string
}

// Stats aggregates solver behaviour, reported in the paper's
// scalability study (Figure 11 and Section 4.2).
type Stats struct {
	// Instrs is the number of instructions analyzed.
	Instrs int
	// Vars is the number of SSA variables.
	Vars int
	// Constraints is the number of constraints generated by the
	// Figure 7 rules (variables with a non-trivial right-hand side).
	Constraints int
	// Pops is the number of worklist extractions during solving.
	Pops int
	// SetSizes histograms the cardinality of the final LT sets.
	SetSizes map[int]int
}

// Result holds the LT sets of every function in an analyzed module.
type Result struct {
	fns map[*ir.Func]*funcResult
	// Stats accumulates solver statistics over all functions.
	Stats Stats
	// Degraded maps functions whose analysis did not complete to the
	// cause ("panic", "budget", "canceled", or "skipped"). A degraded function's
	// LT sets are empty, so every query about it answers false — the
	// sound conservative default.
	Degraded map[*ir.Func]string
	// Failures details every recovered panic and budget exhaustion,
	// in module function order.
	Failures []FuncFailure
}

// Empty returns a Result with no analyzed functions: every LessThan
// query answers false. The harness substitutes it when the whole
// less-than stage fails.
func Empty() *Result {
	return &Result{fns: map[*ir.Func]*funcResult{}, Stats: Stats{SetSizes: map[int]int{}}}
}

// DegradedFuncs returns the names of degraded functions in sorted
// order.
func (r *Result) DegradedFuncs() []string {
	var out []string
	for f := range r.Degraded {
		out = append(out, f.FName)
	}
	sort.Strings(out)
	return out
}

func (r *Result) markDegraded(f *ir.Func, cause string) {
	if r.Degraded == nil {
		r.Degraded = map[*ir.Func]string{}
	}
	r.Degraded[f] = cause
}

// funcResult is one function's solved analysis: sets[i] is LT(vars[i])
// over variable indices. Variables may share one set instance, so sets
// are never mutated once stored.
type funcResult struct {
	// f is the function analyzed, and index[id] the variable index of
	// its value with that id, or -1. The table is valid only as long
	// as f's ids are (see ir.Func.RenumberValues).
	f     *ir.Func
	index []int32
	vars  []ir.Value
	sets  []*bitvec.Set
}

// enumerate numbers f's variables as the solve and every rebind do:
// parameters, then instruction results in block order. It returns the
// numbering with no sets, and the number of instructions. n presizes
// vars: an upper bound spares the appends their regrowth.
func enumerate(f *ir.Func, n int) (*funcResult, int) {
	fr := &funcResult{f: f, index: make([]int32, f.NumValues()), vars: make([]ir.Value, 0, n)}
	for i := range fr.index {
		fr.index[i] = -1
	}
	for _, p := range f.Params {
		fr.index[p.ID()] = int32(len(fr.vars))
		fr.vars = append(fr.vars, p)
	}
	instrs := 0
	f.Instrs(func(in *ir.Instr) bool {
		instrs++
		if in.HasResult() {
			fr.index[in.ID()] = int32(len(fr.vars))
			fr.vars = append(fr.vars, in)
		}
		return true
	})
	return fr, instrs
}

// indexOf returns v's variable index, or -1 when v is not a variable
// of fr's function: a constant, a global, an undef, a detached
// instruction or a value of another function.
func (fr *funcResult) indexOf(v ir.Value) int32 {
	f, id := ir.ValueID(v)
	if f != fr.f || id < 0 || id >= len(fr.index) {
		return -1
	}
	return fr.index[id]
}

// constraint kinds.
const (
	cEmpty = iota // LT(x) = ∅
	cUnion        // LT(x) = elts ∪ ⋃ LT(refs)
	cInter        // LT(x) = ⋂ LT(refs)
)

type constraint struct {
	kind int
	// elts are variable indices added as singletons.
	elts []int
	// refs are variable indices whose LT sets are combined.
	refs []int
}

// Analyze runs the less-than analysis on every function of m, which
// must already be in e-SSA form (essa.TransformModule). ranges
// supplies the interval information of Section 3.2; it may be nil,
// in which case only constant operands are classified.
func Analyze(m *ir.Module, ranges *rangeanal.Result, opt Options) *Result {
	return AnalyzeCtx(context.Background(), m, ranges, opt)
}

// AnalyzeCtx is Analyze under a context: Options.Budget (or
// BudgetFor) caps each function's solver run against ctx, and
// Options.Recover contains per-function panics. Degraded functions
// keep sound empty LT sets and are listed in Result.Degraded.
func AnalyzeCtx(ctx context.Context, m *ir.Module, ranges *rangeanal.Result, opt Options) *Result {
	return analyzeModule(ctx, m, ranges, opt, nil)
}

// funcSlot holds one function's outcome until the deterministic
// merge. escaped carries a panic captured on a worker goroutine when
// Recover is unset; it is re-raised after the pool drains.
type funcSlot struct {
	fr      *funcResult
	st      Stats
	fail    *FuncFailure
	escaped any
}

func analyzeModule(ctx context.Context, m *ir.Module, ranges *rangeanal.Result, opt Options,
	seeds map[*ir.Func][][2]int) *Result {
	res := &Result{
		fns:   make(map[*ir.Func]*funcResult, len(m.Funcs)),
		Stats: Stats{SetSizes: map[int]int{}},
	}

	slots := make([]funcSlot, len(m.Funcs))
	process := func(i int, f *ir.Func) {
		key := ""
		if opt.Memo != nil && opt.MemoKey != nil {
			if key = opt.MemoKey(f); key != "" {
				key += seedSuffix(seeds[f])
				if art, ok := opt.Memo.Lookup(key); ok {
					if fr, st, ok := bindFunc(f, art); ok {
						slots[i] = funcSlot{fr: fr, st: st}
						return
					}
				}
			}
		}
		fr, st, fail := analyzeFuncHardened(ctx, f, ranges, opt, seeds[f])
		slots[i] = funcSlot{fr: fr, st: st, fail: fail}
		if key != "" && fail == nil {
			if art := exportFunc(fr, st); art != nil {
				opt.Memo.Store(key, art)
			}
		}
	}

	workers := opt.Workers
	if workers > len(m.Funcs) {
		workers = len(m.Funcs)
	}
	if workers <= 1 {
		for i, f := range m.Funcs {
			if !opt.Skip[f] {
				process(i, f)
			}
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					func(i int) {
						// Containment of last resort: without it, a
						// panic on a worker goroutine would kill the
						// whole process even for callers that recover
						// around AnalyzeCtx. Recover-mode panics are
						// already converted to FuncFailures one level
						// down and never reach this.
						defer func() {
							if r := recover(); r != nil {
								slots[i].escaped = r
							}
						}()
						process(i, m.Funcs[i])
					}(i)
				}
			}()
		}
		for i, f := range m.Funcs {
			if !opt.Skip[f] {
				idx <- i
			}
		}
		close(idx)
		wg.Wait()
	}

	// Deterministic merge in module function order: the report and
	// statistics read identically whatever order the workers finished
	// in.
	for i, f := range m.Funcs {
		if opt.Skip[f] {
			res.fns[f] = emptyFuncResult()
			res.markDegraded(f, "skipped")
			continue
		}
		s := &slots[i]
		if s.escaped != nil {
			panic(s.escaped)
		}
		fr, st, fail := s.fr, s.st, s.fail
		if fr == nil {
			fr = emptyFuncResult()
		}
		res.fns[f] = fr
		if fail != nil {
			res.Failures = append(res.Failures, *fail)
			res.markDegraded(f, fail.Cause)
		}
		res.Stats.Instrs += st.Instrs
		res.Stats.Vars += st.Vars
		res.Stats.Constraints += st.Constraints
		res.Stats.Pops += st.Pops
		for k, v := range st.SetSizes {
			res.Stats.SetSizes[k] += v
		}
	}
	return res
}

// emptyFuncResult is the degraded per-function result: no indexed
// variables, so every query answers false.
func emptyFuncResult() *funcResult { return &funcResult{} }

// analyzeFuncHardened runs one function's analysis under its budget
// and, when opt.Recover is set, under panic containment. On failure
// the function's result is the sound empty one and fail describes
// what happened.
func analyzeFuncHardened(ctx context.Context, f *ir.Func, ranges *rangeanal.Result,
	opt Options, seeds [][2]int) (fr *funcResult, st Stats, fail *FuncFailure) {
	bgt := opt.budgetFor(f).Start(ctx)
	if opt.Recover {
		defer func() {
			if r := recover(); r != nil {
				fr = emptyFuncResult()
				st = Stats{SetSizes: map[int]int{}}
				fail = &FuncFailure{
					Fn:    f.FName,
					Cause: "panic",
					Value: fmt.Sprint(r),
					Stack: string(debug.Stack()),
				}
			}
		}()
	}
	if opt.OnFunc != nil {
		opt.OnFunc(f)
	}
	fr, st = analyzeFuncBudgeted(f, ranges, opt, seeds, bgt)
	if err := bgt.Err(); err != nil {
		// The solver bailed out and cleared its sets; keep the
		// (empty-set) result but record what stopped it. A context
		// cancellation (user interrupt) is distinguished from genuine
		// budget exhaustion so quarantine statistics and checkpointing
		// drivers do not mistake an interrupted run for a pathological
		// function.
		cause := "budget"
		if budget.Canceled(err) {
			cause = "canceled"
		}
		fail = &FuncFailure{Fn: f.FName, Cause: cause, Value: err.Error()}
	}
	return fr, st, fail
}

// AnalyzeFunc runs the analysis on a single function in e-SSA form.
func AnalyzeFunc(f *ir.Func, ranges *rangeanal.Result, opt Options) *Result {
	fr, st := analyzeFunc(f, ranges, opt)
	st.SetSizes = sizesOf(fr)
	return &Result{fns: map[*ir.Func]*funcResult{f: fr}, Stats: st}
}

// LessThan reports whether the analysis proves a < b. Both values
// must belong to the same function; unindexed values (constants,
// globals, values of other functions) report false.
func (r *Result) LessThan(a, b ir.Value) bool {
	fl := FuncLT{r.fnOf(b)}
	return fl.Less(fl.Index(a), fl.Index(b))
}

// FuncLT is one function's LT sets addressed by dense variable index,
// for clients that ask many queries about the same values: Index maps
// each value once, and Less then costs one bit test. Every variable of
// a function belongs to it (its parameters and instruction results), so
// for a and b of one function LessThan(a, b) equals
// Func(f).Less(Func(f).Index(a), Func(f).Index(b)).
type FuncLT struct{ fr *funcResult }

// Func returns f's LT sets; a function the analysis did not cover
// yields a FuncLT that indexes nothing.
func (r *Result) Func(f *ir.Func) FuncLT { return FuncLT{r.fns[f]} }

// Index returns v's dense variable index, or -1 when v is not one of
// the function's analyzed variables (constants, globals, values of
// other functions).
func (fl FuncLT) Index(v ir.Value) int32 {
	if fl.fr == nil {
		return -1
	}
	return fl.fr.indexOf(v)
}

// Less reports whether variable i is proven strictly less than
// variable j; index -1 is less than nothing and greater than nothing.
func (fl FuncLT) Less(i, j int32) bool {
	return i >= 0 && j >= 0 && fl.fr.sets[j].Has(int(i))
}

// Len returns the number of indexed variables: every index is in
// [0, Len()).
func (fl FuncLT) Len() int {
	if fl.fr == nil {
		return 0
	}
	return len(fl.fr.sets)
}

// ForEachLess calls f, in ascending order, with every variable proven
// strictly less than variable j, the members of LT(j); f returning
// false stops the walk. j must be an index, in [0, Len()).
func (fl FuncLT) ForEachLess(j int32, f func(i int) bool) {
	fl.fr.sets[j].ForEach(f)
}

// LT returns the members of LT(x), i.e. every variable proven
// strictly less than x, in deterministic order.
func (r *Result) LT(x ir.Value) []ir.Value {
	fr := r.fnOf(x)
	if fr == nil {
		return nil
	}
	xi := fr.indexOf(x)
	if xi < 0 {
		return nil
	}
	idxs := fr.sets[xi].Elems()
	out := make([]ir.Value, len(idxs))
	for i, vi := range idxs {
		out[i] = fr.vars[vi]
	}
	return out
}

func (r *Result) fnOf(v ir.Value) *funcResult {
	switch v := v.(type) {
	case *ir.Param:
		return r.fns[v.Fn]
	case *ir.Instr:
		if v.Blk == nil {
			return nil
		}
		return r.fns[v.Blk.Fn]
	}
	return nil
}

func sizesOf(fr *funcResult) map[int]int {
	h := map[int]int{}
	for _, s := range fr.sets {
		h[s.Len()]++
	}
	return h
}

func analyzeFunc(f *ir.Func, ranges *rangeanal.Result, opt Options) (*funcResult, Stats) {
	return analyzeFuncBudgeted(f, ranges, opt, nil, nil)
}

// analyzeFuncBudgeted additionally installs inter-procedural
// parameter facts — each seed [lo, hi] (parameter indices)
// contributes the constraint LT(p_hi) ⊇ {p_lo} ∪ LT(p_lo), the
// lifting of rule 4 over call sites described in Section 4 — and
// polls bgt (nil-safe) once per constraint generated and per worklist
// pop. On exhaustion every set collapses to ∅, the sound answer that
// claims nothing.
func analyzeFuncBudgeted(f *ir.Func, ranges *rangeanal.Result, opt Options, seeds [][2]int,
	bgt *budget.B) (*funcResult, Stats) {
	fr, instrs := enumerate(f, f.NumValues())
	st := Stats{Instrs: instrs, Vars: len(fr.vars), SetSizes: map[int]int{}}

	gen := &generator{fr: fr, ranges: ranges, opt: opt}
	cons := make([]constraint, len(fr.vars))
	for i := range cons {
		cons[i] = constraint{kind: cEmpty}
	}
	f.Instrs(func(in *ir.Instr) bool {
		if !in.HasResult() {
			return true
		}
		if bgt.Tick() != nil {
			return false // exhausted: solve() bails on its first tick
		}
		cons[fr.index[in.ID()]] = gen.constraintFor(in)
		return true
	})
	for _, s := range seeds {
		lo, hi := s[0], s[1]
		if lo < 0 || hi < 0 || lo >= len(f.Params) || hi >= len(f.Params) {
			continue
		}
		li := int(fr.index[lo])
		c := &cons[fr.index[hi]]
		if c.kind == cEmpty {
			*c = constraint{kind: cUnion}
		}
		if c.kind == cUnion {
			c.elts = append(c.elts, li)
			c.refs = append(c.refs, li)
		}
	}
	for _, c := range cons {
		if c.kind != cEmpty {
			st.Constraints++
		}
	}

	solve(fr, cons, &st, bgt)
	st.SetSizes = sizesOf(fr)
	return fr, st
}

type generator struct {
	fr     *funcResult
	ranges *rangeanal.Result
	opt    Options
}

// sign classification of an operand: strictly positive, strictly
// negative, non-negative, non-positive, or unknown.
func (g *generator) signOf(v ir.Value) (pos, neg, nonneg, nonpos bool) {
	if c, ok := v.(*ir.Const); ok {
		return c.Val > 0, c.Val < 0, c.Val >= 0, c.Val <= 0
	}
	if g.opt.NoRanges || g.ranges == nil {
		return false, false, false, false
	}
	iv := g.ranges.Range(v)
	if iv.IsEmpty() {
		return false, false, false, false
	}
	return iv.Lo > 0, iv.Hi < 0, iv.Lo >= 0, iv.Hi <= 0
}

func (g *generator) idx(v ir.Value) (int, bool) {
	i := g.fr.indexOf(v)
	return int(i), i >= 0
}

// constraintFor implements the rules of Figure 7, extended to GEPs
// (pointer arithmetic) and generalized comparison predicates.
func (g *generator) constraintFor(in *ir.Instr) constraint {
	switch in.Op {
	case ir.OpAdd:
		return g.additionConstraint(in, in.Args[0], in.Args[1], false)
	case ir.OpSub:
		return g.additionConstraint(in, in.Args[0], in.Args[1], true)
	case ir.OpGEP:
		return g.gepConstraint(in)
	case ir.OpCopy:
		return g.copyConstraint(in)
	case ir.OpPhi:
		return g.phiConstraint(in)
	case ir.OpSigma:
		return g.sigmaConstraint(in)
	}
	// Rule 1: x = • — no information.
	return constraint{kind: cEmpty}
}

// additionConstraint handles x = a + b (sub = false) and x = a - b
// (sub = true). Rule 2 of Figure 7: when the instruction adds a
// strictly positive amount to a variable v, LT(x) = {v} ∪ LT(v);
// when both operands qualify the union covers both.
func (g *generator) additionConstraint(in *ir.Instr, a, b ir.Value, sub bool) constraint {
	posB, negB, nonnegB, nonposB := g.signOf(b)
	if sub {
		// x = a - b behaves like x = a + (-b).
		posB, negB = negB, posB
		nonnegB, nonposB = nonposB, nonnegB
	}
	posA, _, nonnegA, _ := g.signOf(a)
	if sub {
		// Only the a + b form can treat a as an addend.
		posA, nonnegA = false, false
	}

	c := constraint{kind: cUnion}
	grew := false
	// b strictly positive: x > a.
	if posB {
		if ai, ok := g.idx(a); ok {
			c.elts = append(c.elts, ai)
			c.refs = append(c.refs, ai)
			grew = true
		}
	}
	// a strictly positive: x > b (x = a + b only).
	if posA && !sub {
		if bi, ok := g.idx(b); ok {
			c.elts = append(c.elts, bi)
			c.refs = append(c.refs, bi)
			grew = true
		}
	}
	if grew {
		return c
	}
	// Non-strict extension: x >= a lets LT(a) flow into LT(x).
	if g.opt.NonStrict {
		if nonnegB {
			if ai, ok := g.idx(a); ok {
				return constraint{kind: cUnion, refs: []int{ai}}
			}
		}
		if nonnegA && !sub {
			if bi, ok := g.idx(b); ok {
				return constraint{kind: cUnion, refs: []int{bi}}
			}
		}
	}
	// Rule 3 sets LT of the subtraction result to ∅; the information
	// x1 < x2 lives in the copy inserted by essa.SplitSubtractions.
	return constraint{kind: cEmpty}
}

// gepConstraint treats p1 = gep p, n as pointer addition.
func (g *generator) gepConstraint(in *ir.Instr) constraint {
	base, off := in.Args[0], in.Args[1]
	pos, _, nonneg, _ := g.signOf(off)
	bi, ok := g.idx(base)
	if !ok {
		return constraint{kind: cEmpty}
	}
	if pos {
		return constraint{kind: cUnion, elts: []int{bi}, refs: []int{bi}}
	}
	if g.opt.NonStrict && nonneg {
		return constraint{kind: cUnion, refs: []int{bi}}
	}
	return constraint{kind: cEmpty}
}

// copyConstraint: a plain copy propagates its source's set; a
// subtraction split (rule 3) additionally knows the subtraction's
// result is strictly less: LT(x3) = {x1} ∪ LT(x2).
func (g *generator) copyConstraint(in *ir.Instr) constraint {
	src := in.Args[0]
	si, ok := g.idx(src)
	if !ok {
		return constraint{kind: cEmpty}
	}
	c := constraint{kind: cUnion, refs: []int{si}}
	if sub := in.SubUser(); sub != nil {
		if ui, ok := g.idx(sub); ok {
			c.elts = append(c.elts, ui)
		}
	}
	return c
}

// phiConstraint: rule 4, LT(x) = ⋂ LT(xi). A constant incoming value
// has no LT set, forcing the intersection to ∅ (conservative).
func (g *generator) phiConstraint(in *ir.Instr) constraint {
	c := constraint{kind: cInter}
	for _, a := range in.Args {
		ai, ok := g.idx(a)
		if !ok {
			return constraint{kind: cEmpty}
		}
		c.refs = append(c.refs, ai)
	}
	return c
}

// sigmaConstraint: rule 5, generalized. The sigma renames variable v
// on an edge where "v REL other" is known, with REL the comparison
// predicate normalized to v's side and the edge's polarity.
func (g *generator) sigmaConstraint(in *ir.Instr) constraint {
	v := in.Args[0]
	vi, vok := g.idx(v)
	if !vok {
		return constraint{kind: cEmpty}
	}
	rel := in.Cmp().Pred
	if in.CmpSide == 1 {
		rel = rel.Swap()
	}
	if !in.OnTrue {
		rel = rel.Negate()
	}
	sib := g.sibling(in)
	base := constraint{kind: cUnion, refs: []int{vi}}
	switch rel {
	case ir.CmpLT, ir.CmpLE, ir.CmpNE:
		// v is (possibly) the smaller side: nothing new beyond LT(v).
		return base
	case ir.CmpGT:
		// v > other: LT(s) = {w} ∪ LT(v) ∪ LT(w) with w the sibling
		// sigma of the other operand.
		if sib != nil {
			if wi, ok := g.idx(sib); ok {
				base.elts = append(base.elts, wi)
				base.refs = append(base.refs, wi)
			}
		}
		return base
	case ir.CmpGE:
		// v >= other: everything below other is below v.
		if sib != nil {
			if wi, ok := g.idx(sib); ok {
				base.refs = append(base.refs, wi)
			}
		}
		return base
	case ir.CmpEQ:
		// v == other: LT(s) = LT(v) ∪ LT(other). Referencing the
		// original other operand (not the sibling) keeps the
		// constraint graph free of union cycles.
		other := in.Cmp().Args[1-in.CmpSide]
		if oi, ok := g.idx(other); ok {
			base.refs = append(base.refs, oi)
		}
		return base
	}
	return base
}

// sibling finds the sigma of the comparison's other operand on the
// same edge.
func (g *generator) sibling(in *ir.Instr) *ir.Instr {
	for _, cand := range in.Blk.Instrs {
		if cand.Op != ir.OpSigma && cand.Op != ir.OpPhi {
			break
		}
		if cand.Op == ir.OpSigma && cand != in && cand.Cmp() == in.Cmp() &&
			cand.OnTrue == in.OnTrue && cand.CmpSide == 1-in.CmpSide {
			return cand
		}
	}
	return nil
}

// solverHook, when non-nil, observes every set update of the solver
// (target index, previous set, next set; nil is top). The test suite
// uses it to verify Lemma 3.6 — updates are monotonically decreasing —
// on real workloads.
var solverHook func(target int, prev, next *bitvec.Set)

// evalConstraint computes the right-hand side of c over the current
// sets. A nil set is top, V, the lattice's initial value, which is
// never materialized and never reaches a bitvec method: a union that
// mentions top is top, and an intersection skips top operands, so it
// is top only when every operand is. The result may be one of sets'
// own (shared, immutable) instances.
func evalConstraint(c constraint, sets []*bitvec.Set) *bitvec.Set {
	switch c.kind {
	case cUnion:
		if len(c.elts) == 0 && len(c.refs) == 1 {
			// Pure copy: share the source set instead of cloning.
			return sets[c.refs[0]]
		}
		out := &bitvec.Set{}
		for _, e := range c.elts {
			out.Add(e)
		}
		for _, r := range c.refs {
			if sets[r] == nil {
				return nil
			}
			out.UnionWith(sets[r])
		}
		return out
	case cInter:
		var out *bitvec.Set
		shared := true
		for _, r := range c.refs {
			switch s := sets[r]; {
			case s == nil:
				// top ∩ X = X.
			case out == nil:
				out = s
			default:
				if shared {
					out, shared = out.Clone(), false
				}
				out.IntersectWith(s)
			}
		}
		return out
	}
	return &bitvec.Set{}
}

// solve runs the descending worklist of Section 3.4: every set starts
// at V (top) and constraints only remove elements, reaching the
// greatest fixed point. When the budget runs out mid-solve, every
// set collapses to ∅ — the intermediate states of the descending
// iteration over-approximate the fixed point and so may claim
// orderings that do not hold, whereas ∅ claims nothing.
func solve(fr *funcResult, cons []constraint, st *Stats, bgt *budget.B) {
	n := len(fr.vars)
	// Variables with the trivial constraint LT(x) = ∅ (rule 1) are
	// resolved immediately; only non-trivial constraints enter the
	// worklist, matching the accounting behind the paper's ~2 pops
	// per constraint observation. Every other set starts at top (nil).
	fr.sets = make([]*bitvec.Set, n)
	for i := range fr.sets {
		if cons[i].kind == cEmpty {
			fr.sets[i] = &bitvec.Set{}
		}
	}
	// dependents[v] lists constraint targets whose RHS mentions LT(v).
	dependents := make([][]int, n)
	for t, c := range cons {
		for _, r := range c.refs {
			dependents[r] = append(dependents[r], t)
		}
	}
	var work []int
	inWork := make([]bool, n)
	for i := range cons {
		if cons[i].kind != cEmpty {
			work = append(work, i)
			inWork[i] = true
		}
	}
	// intern hash-conses the evolving sets: the many variables that
	// converge to equal LT sets share one instance, and a shared
	// pointer turns the no-change re-evaluation — the steady state of
	// the descending iteration — into a pointer compare. Neither
	// sharing nor interning changes any set's content, so the pop
	// order, Pops count, and final sets are identical to an unshared
	// solve.
	intern := bitvec.NewInterner()
	for len(work) > 0 {
		if bgt.Tick() != nil {
			empty := &bitvec.Set{}
			for i := range fr.sets {
				fr.sets[i] = empty
			}
			return
		}
		t := work[0]
		work = work[1:]
		inWork[t] = false
		st.Pops++
		next, cur := evalConstraint(cons[t], fr.sets), fr.sets[t]
		if next == cur || (next != nil && cur != nil && next.Equal(cur)) {
			continue
		}
		if next != nil {
			next = intern.Intern(next)
		}
		if solverHook != nil {
			solverHook(t, cur, next)
		}
		fr.sets[t] = next
		for _, d := range dependents[t] {
			if !inWork[d] {
				inWork[d] = true
				work = append(work, d)
			}
		}
	}
	empty := &bitvec.Set{}
	for i, s := range fr.sets {
		switch {
		case s == nil:
			// Residual top sets (possible only in degenerate graphs)
			// make no sound claims once cleared.
			fr.sets[i] = empty
		case s.Has(i):
			// A variable is never strictly less than itself; guard
			// against x < x sneaking in through equality rules. The
			// set may be shared, so edit a copy.
			cl := s.Clone()
			cl.Remove(i)
			fr.sets[i] = cl
		}
	}
}

// VarsOf returns the indexed variables of f in index order, for
// white-box tests and statistics.
func (r *Result) VarsOf(f *ir.Func) []ir.Value {
	fr := r.fns[f]
	if fr == nil {
		return nil
	}
	return fr.vars
}

// SetSizeDistribution returns (size, count) pairs of the final LT
// sets across all analyzed functions, sorted by size — the statistic
// behind the paper's observation that over 95% of sets hold two or
// fewer elements.
func (r *Result) SetSizeDistribution() [][2]int {
	h := map[int]int{}
	for _, fr := range r.fns {
		for _, s := range fr.sets {
			h[s.Len()]++
		}
	}
	var out [][2]int
	for k, v := range h {
		out = append(out, [2]int{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
