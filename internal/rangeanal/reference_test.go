// The reference solver: the original map-keyed worklist implementation
// of the same constraint system. It keys every piece of state by
// ir.Value and re-resolves operands on every evaluation, but it runs
// the identical schedule (FIFO order, widening, shrinkCap, narrowing
// sweeps, budget ticks) and the identical entry rule, so its intervals
// must equal the dense solver's exactly. It is test-only: the
// differential oracle TestDifferentialRanges checks the dense solver
// against, and the baseline BenchmarkAnalyze measures it relative to.
package rangeanal

import (
	"context"

	"repro/internal/budget"
	"repro/internal/ir"
)

// refResult is the reference solver's output: the environment as the
// solver left it, the budget error and ticks, whether the ascent
// aborted (in which case ranges is empty and every value reports Top),
// and the constraint system it solved.
type refResult struct {
	ranges  map[ir.Value]Interval
	err     error
	steps   int
	aborted bool
	sys     *refAnalysis
}

// Range mirrors Result.Range over the reference environment.
func (r *refResult) Range(v ir.Value) Interval {
	if c, ok := v.(*ir.Const); ok {
		return Point(c.Val)
	}
	if iv, ok := r.ranges[v]; ok {
		return iv
	}
	return Top
}

// referenceAnalyzeCtx runs the reference solver on a whole module
// under a context, budget and skip set.
func referenceAnalyzeCtx(ctx context.Context, m *ir.Module, opt Opts) *refResult {
	a := newRefAnalysis()
	for _, f := range m.Funcs {
		if opt.Skip[f] {
			continue
		}
		a.addFunc(f)
	}
	// Inter-procedural edges.
	callers := map[*ir.Func]int{}
	callees := map[*ir.Func][]*ir.Func{}
	for _, f := range m.Funcs {
		if opt.Skip[f] {
			continue
		}
		f.Instrs(func(in *ir.Instr) bool {
			if in.Op == ir.OpCall && in.Callee() != nil && !opt.Skip[in.Callee()] {
				callers[in.Callee()]++
				callees[f] = append(callees[f], in.Callee())
				for i, arg := range in.Args {
					if i < len(in.Callee().Params) {
						a.addCallArg(arg, in.Callee().Params[i])
					}
				}
				for _, ret := range a.rets[in.Callee()] {
					a.addDep(ret, in)
				}
			}
			return true
		})
	}
	// Entry rule: parameters are bound to their actuals only in
	// functions some caller-free function reaches through calls.
	reached := map[*ir.Func]bool{}
	var stack []*ir.Func
	for _, f := range m.Funcs {
		if !opt.Skip[f] && callers[f] == 0 {
			stack = append(stack, f)
		}
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range callees[f] {
			if !reached[c] {
				reached[c] = true
				stack = append(stack, c)
			}
		}
	}
	for _, f := range m.Funcs {
		if opt.Skip[f] || reached[f] {
			continue
		}
		for _, p := range f.Params {
			if ir.IsInt(p.Typ) {
				a.external[p] = true
			}
		}
	}
	bgt := opt.Budget.Start(ctx)
	res := &refResult{ranges: a.env, sys: a}
	res.aborted = a.solve(bgt)
	res.err, res.steps = bgt.Err(), bgt.Steps()
	if res.aborted {
		res.ranges = map[ir.Value]Interval{}
	}
	return res
}

type refAnalysis struct {
	env  map[ir.Value]Interval
	deps map[ir.Value][]ir.Value // value -> nodes to re-evaluate on change
	// callArgs[param] lists the actual arguments feeding it.
	callArgs map[*ir.Param][]ir.Value
	// rets[f] lists the values returned by f.
	rets map[*ir.Func][]ir.Value
	// external marks parameters with no analyzable call sites.
	external  map[ir.Value]bool
	nodes     []ir.Value
	widenCnt  map[ir.Value]int
	shrinkCnt map[ir.Value]int
}

func newRefAnalysis() *refAnalysis {
	return &refAnalysis{
		env:       map[ir.Value]Interval{},
		deps:      map[ir.Value][]ir.Value{},
		callArgs:  map[*ir.Param][]ir.Value{},
		rets:      map[*ir.Func][]ir.Value{},
		external:  map[ir.Value]bool{},
		widenCnt:  map[ir.Value]int{},
		shrinkCnt: map[ir.Value]int{},
	}
}

func (a *refAnalysis) addDep(from, to ir.Value) {
	if _, isConst := from.(*ir.Const); isConst {
		return
	}
	a.deps[from] = append(a.deps[from], to)
}

func (a *refAnalysis) addCallArg(arg ir.Value, p *ir.Param) {
	if !ir.IsInt(p.Typ) {
		return
	}
	a.callArgs[p] = append(a.callArgs[p], arg)
	a.addDep(arg, p)
}

func (a *refAnalysis) addFunc(f *ir.Func) {
	for _, p := range f.Params {
		if ir.IsInt(p.Typ) {
			a.nodes = append(a.nodes, p)
			a.env[p] = Bottom
		}
	}
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpRet && len(in.Args) == 1 {
			a.rets[f] = append(a.rets[f], in.Args[0])
		}
		if !in.HasResult() || !ir.IsInt(in.Typ) {
			return true
		}
		a.nodes = append(a.nodes, in)
		a.env[in] = Bottom
		for _, arg := range in.Args {
			a.addDep(arg, in)
		}
		if in.Op == ir.OpSigma {
			// The sigma's refinement also depends on the other
			// compare operand.
			other := in.Cmp().Args[1-in.CmpSide]
			a.addDep(other, in)
		}
		return true
	})
}

func (a *refAnalysis) get(v ir.Value) Interval {
	if c, ok := v.(*ir.Const); ok {
		return Point(c.Val)
	}
	if iv, ok := a.env[v]; ok {
		return iv
	}
	return Top // pointers, undef, globals: unconstrained
}

// eval computes the abstract value of a node from the current
// environment.
func (a *refAnalysis) eval(v ir.Value) Interval {
	switch n := v.(type) {
	case *ir.Param:
		if a.external[n] {
			return Top
		}
		out := Bottom
		for _, arg := range a.callArgs[n] {
			out = Union(out, a.get(arg))
		}
		return out
	case *ir.Instr:
		return a.evalInstr(n)
	}
	return Top
}

func (a *refAnalysis) evalInstr(in *ir.Instr) Interval {
	arg := func(i int) Interval { return a.get(in.Args[i]) }
	switch in.Op {
	case ir.OpAdd:
		return Add(arg(0), arg(1))
	case ir.OpSub:
		return Sub(arg(0), arg(1))
	case ir.OpMul:
		return Mul(arg(0), arg(1))
	case ir.OpDiv:
		return Div(arg(0), arg(1))
	case ir.OpRem:
		return Rem(arg(0), arg(1))
	case ir.OpAnd:
		// x & m with a non-negative constant mask is within [0, m].
		if c, ok := in.Args[1].(*ir.Const); ok && c.Val >= 0 {
			return Interval{0, c.Val}
		}
		if c, ok := in.Args[0].(*ir.Const); ok && c.Val >= 0 {
			return Interval{0, c.Val}
		}
		return Top
	case ir.OpICmp:
		return Interval{0, 1}
	case ir.OpPhi:
		out := Bottom
		for _, v := range in.Args {
			out = Union(out, a.get(v))
		}
		return out
	case ir.OpSigma:
		src := a.get(in.Args[0])
		bound := a.get(in.Cmp().Args[1-in.CmpSide])
		pred := in.Cmp().Pred
		if in.CmpSide == 1 {
			pred = pred.Swap()
		}
		if !in.OnTrue {
			pred = pred.Negate()
		}
		return Intersect(src, refine(pred, bound))
	case ir.OpCopy:
		return a.get(in.Args[0])
	case ir.OpCall:
		if in.Callee() == nil {
			return Top
		}
		out := Bottom
		for _, ret := range a.rets[in.Callee()] {
			out = Union(out, a.get(ret))
		}
		if len(a.rets[in.Callee()]) == 0 {
			return Top
		}
		return out
	}
	// Loads, shifts, xor/or, malloc sizes escaping analysis: Top.
	return Top
}

// solve runs the ascending phase to its widened fixed point, then a
// bounded narrowing. It reports aborted=true only when the budget
// expired mid-ascent.
func (a *refAnalysis) solve(bgt *budget.B) (aborted bool) {
	// Ascending phase with widening.
	work := append([]ir.Value(nil), a.nodes...)
	inWork := make(map[ir.Value]bool, len(work))
	for _, n := range work {
		inWork[n] = true
	}
	for len(work) > 0 {
		if bgt.Tick() != nil {
			return true
		}
		n := work[0]
		work = work[1:]
		inWork[n] = false
		next := a.eval(n)
		cur := a.env[n]
		if next.Eq(cur) {
			continue
		}
		grew := Union(cur, next)
		if !grew.Eq(cur) {
			a.widenCnt[n]++
			if a.widenCnt[n] > widenThreshold {
				next = Widen(cur, next)
			} else {
				next = grew
			}
		} else {
			if a.shrinkCnt[n] >= shrinkCap {
				continue
			}
			a.shrinkCnt[n]++
		}
		if next.Eq(cur) {
			continue
		}
		a.env[n] = next
		for _, d := range a.deps[n] {
			if !inWork[d] {
				inWork[d] = true
				work = append(work, d)
			}
		}
	}
	// Descending (narrowing) phase.
	for pass := 0; pass < narrowPasses; pass++ {
		changed := false
		for _, n := range a.nodes {
			if bgt.Tick() != nil {
				return false
			}
			next := a.eval(n)
			cur := a.env[n]
			refined := Intersect(cur, next)
			if !refined.Eq(cur) {
				a.env[n] = refined
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return false
}
