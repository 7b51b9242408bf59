package core

import (
	"context"
	"sort"

	"repro/internal/csr"
	"repro/internal/ir"
	"repro/internal/rangeanal"
)

// paramPair records a (lesser, greater) pair of parameter indices.
type paramPair struct{ Lo, Hi int }

// AnalyzeInterproc runs the less-than analysis with the paper's
// inter-procedural, context-insensitive extension (Section 4): each
// formal parameter behaves like a pseudo-phi over the actual
// arguments of every call site. Concretely, for a pair of formals
// (pi, pj) of one function, pi < pj is recorded when every in-module
// call site passes arguments with argi < argj in the caller — the
// intersection semantics of rule 4 lifted across the call graph.
// Only functions that an entry point, a function with no in-module
// caller, reaches through calls get parameter facts; range analysis
// applies the same entry rule. Any other function may be called from
// outside with any argument: an entry point itself, and also a
// function called only by itself or by a cycle that no entry point
// reaches. Those keep the [−∞, +∞] default the paper describes for the
// intra-procedural alternative.
//
// The refinement iterates to a fixed point: caller facts may
// themselves depend on parameter facts established in a previous
// round. Termination follows because the set of parameter pairs per
// function is finite and facts only ever get retracted, never
// re-added, between rounds (the final round recomputes from scratch
// with the surviving seeds).
func AnalyzeInterproc(m *ir.Module, ranges *rangeanal.Result, opt Options) *Result {
	return AnalyzeInterprocCtx(context.Background(), m, ranges, opt)
}

// AnalyzeInterprocCtx is AnalyzeInterproc under a context: budgets,
// panic containment and skip sets apply to every per-function solve
// of every refinement round, exactly as in AnalyzeCtx.
func AnalyzeInterprocCtx(ctx context.Context, m *ir.Module, ranges *rangeanal.Result, opt Options) *Result {
	// Round 0: plain per-function analysis.
	res := AnalyzeCtx(ctx, m, ranges, opt)

	// Collect call sites per callee, and the call graph of the entry
	// rule: function i has ncallers[i] in-module call sites and calls
	// callees[off[i]:off[i+1]].
	fnIdx := make(map[*ir.Func]int32, len(m.Funcs))
	for i, f := range m.Funcs {
		fnIdx[f] = int32(i)
	}
	callers := map[*ir.Func][]*ir.Instr{}
	ncallers, off := make([]int32, len(m.Funcs)), make([]int32, len(m.Funcs)+1)
	var callees []int32
	for i, f := range m.Funcs {
		f.Instrs(func(in *ir.Instr) bool {
			if callee := in.Callee(); in.Op == ir.OpCall && callee != nil {
				callers[callee] = append(callers[callee], in)
				if c, ok := fnIdx[callee]; ok {
					ncallers[c]++
					callees = append(callees, c)
				}
			}
			return true
		})
		off[i+1] = int32(len(callees))
	}
	reached := csr.Reached(ncallers, callees, off)

	// seeds[f] is the set of (lesser, greater) parameter index pairs
	// currently believed to hold.
	seeds := map[*ir.Func]map[paramPair]bool{}

	const maxRounds = 5
	for round := 0; round < maxRounds; round++ {
		changed := false
		next := map[*ir.Func]map[paramPair]bool{}
		for f, sites := range callers {
			if i, ok := fnIdx[f]; !ok || !reached[i] || len(f.Params) < 2 {
				continue
			}
			np := len(f.Params)
			for i := 0; i < np; i++ {
				for j := 0; j < np; j++ {
					if i == j {
						continue
					}
					holds := true
					for _, call := range sites {
						if i >= len(call.Args) || j >= len(call.Args) {
							holds = false
							break
						}
						if !argLess(res, call.Args[i], call.Args[j]) {
							holds = false
							break
						}
					}
					if holds {
						if next[f] == nil {
							next[f] = map[paramPair]bool{}
						}
						next[f][paramPair{i, j}] = true
					}
				}
			}
		}
		// Compare with current seeds.
		if !samePairs(seeds, next) {
			changed = true
			seeds = next
		}
		if !changed {
			break
		}
		// Re-solve every seeded function with the parameter facts
		// injected as extra constraints.
		res = analyzeWithSeeds(ctx, m, ranges, opt, seeds)
	}
	return res
}

// argLess decides whether one actual argument is provably less than
// another at a call site: by the caller's LT sets, or directly for
// integer constants.
func argLess(res *Result, a, b ir.Value) bool {
	ca, aConst := a.(*ir.Const)
	cb, bConst := b.(*ir.Const)
	if aConst && bConst {
		return ca.Val < cb.Val
	}
	if aConst || bConst {
		return false // constants carry no LT set
	}
	return res.LessThan(a, b)
}

func samePairs[K comparable](a, b map[*ir.Func]map[K]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for f, pa := range a {
		pb, ok := b[f]
		if !ok || len(pa) != len(pb) {
			return false
		}
		for k := range pa {
			if !pb[k] {
				return false
			}
		}
	}
	return true
}

// analyzeWithSeeds repeats the per-function analysis, seeding each
// function's constraint system with the inter-procedural parameter
// facts: for a pair (lo, hi), LT(p_hi) ⊇ {p_lo} ∪ LT(p_lo).
func analyzeWithSeeds(ctx context.Context, m *ir.Module, ranges *rangeanal.Result, opt Options,
	seeds map[*ir.Func]map[paramPair]bool) *Result {
	seedPairs := make(map[*ir.Func][][2]int, len(seeds))
	for f, pairs := range seeds {
		for p := range pairs {
			seedPairs[f] = append(seedPairs[f], [2]int{p.Lo, p.Hi})
		}
		// Map iteration filled the slice in arbitrary order; sort it
		// so constraint generation — and therefore memo keys and any
		// byte-level result comparison — is deterministic.
		sort.Slice(seedPairs[f], func(i, j int) bool {
			a, b := seedPairs[f][i], seedPairs[f][j]
			if a[0] != b[0] {
				return a[0] < b[0]
			}
			return a[1] < b[1]
		})
	}
	return analyzeModule(ctx, m, ranges, opt, seedPairs)
}
