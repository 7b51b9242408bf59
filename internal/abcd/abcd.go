// Package abcd implements the ABCD algorithm of Bodik, Gupta and
// Sarkar ("ABCD: Eliminating Array Bounds Checks on Demand", PLDI
// 2000) as a comparison baseline. Section 5 of the reproduced paper
// names ABCD as its closest relative and lists the differences; this
// implementation makes those differences measurable:
//
//   - ABCD proves facts on demand, walking an explicit inequality
//     graph per query, whereas the less-than analysis of
//     internal/core precomputes a transitive closure;
//   - ABCD uses only constant edge weights — additions with variable
//     operands generate no edges, because ABCD has no range analysis;
//   - cycles are classified during the proof: a non-amplifying
//     (harmless) cycle lets the proof proceed, an amplifying cycle
//     kills it.
//
// The inequality graph is built from the same e-SSA form the LT
// analysis uses. Each program fact contributes upper-bound edges
// (v ≤ u + w) and, when it is an equality or yields one, dual
// lower-bound edges (v ≥ u + w). Phi nodes are conjunctive in both
// directions: an upper (lower) bound on a phi must hold for every
// incoming value. A query a < b is answered by trying to prove the
// upper bound a ≤ b - 1 and, failing that, the lower bound b ≥ a + 1;
// the two walks meet the two possible shapes of the proof (the
// bounded side or the bounding side may be the phi).
package abcd

import (
	"repro/internal/alias"
	"repro/internal/ir"
)

// edge (from, w) on node v encodes, in the upper graph, v ≤ from + w,
// and in the lower graph, v ≥ from + w.
type edge struct {
	from ir.Value
	w    int64
}

// Graph is the inequality graph of one function.
type Graph struct {
	ub    map[ir.Value][]edge // upper bounds of the key
	lb    map[ir.Value][]edge // lower bounds of the key
	isPhi map[ir.Value]bool
	// Edges counts stored edges (both graphs).
	Edges int
}

// proof lattice: False < Reduced < True.
type proofResult int

const (
	proofFalse proofResult = iota
	proofReduced
	proofTrue
)

// BuildGraph constructs the inequality graph of f, which must be in
// e-SSA form for branch information to be visible.
func BuildGraph(f *ir.Func) *Graph {
	g := &Graph{
		ub:    map[ir.Value][]edge{},
		lb:    map[ir.Value][]edge{},
		isPhi: map[ir.Value]bool{},
	}
	f.Instrs(func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpAdd:
			if c, ok := in.Args[1].(*ir.Const); ok {
				g.exact(in, in.Args[0], c.Val)
			} else if c, ok := in.Args[0].(*ir.Const); ok {
				g.exact(in, in.Args[1], c.Val)
			}
		case ir.OpSub:
			if c, ok := in.Args[1].(*ir.Const); ok {
				g.exact(in, in.Args[0], -c.Val)
			}
		case ir.OpGEP:
			// Pointer arithmetic in element units.
			if c, ok := in.Args[1].(*ir.Const); ok {
				g.exact(in, in.Args[0], c.Val)
			}
		case ir.OpCopy:
			// Plain inheritance: ABCD does not split live ranges at
			// subtractions, so the copy carries no extra fact — the
			// fourth difference Section 5 lists against this baseline.
			g.exact(in, in.Args[0], 0)
		case ir.OpSigma:
			g.exact(in, in.Args[0], 0)
			rel := in.Cmp().Pred
			if in.CmpSide == 1 {
				rel = rel.Swap()
			}
			if !in.OnTrue {
				rel = rel.Negate()
			}
			other := in.Cmp().Args[1-in.CmpSide]
			bounds := []ir.Value{other}
			if sib := sigmaSibling(in); sib != nil {
				bounds = append(bounds, sib)
			}
			for _, b := range bounds {
				switch rel {
				case ir.CmpLT: // sigma < b
					g.upper(in, b, -1)
				case ir.CmpLE:
					g.upper(in, b, 0)
				case ir.CmpGT: // sigma > b
					g.lowerB(in, b, 1)
				case ir.CmpGE:
					g.lowerB(in, b, 0)
				case ir.CmpEQ:
					g.upper(in, b, 0)
					g.lowerB(in, b, 0)
				}
			}
		case ir.OpPhi:
			g.isPhi[ir.Value(in)] = true
			for _, a := range in.Args {
				if skip(a) {
					continue
				}
				g.ub[in] = append(g.ub[in], edge{a, 0})
				g.lb[in] = append(g.lb[in], edge{a, 0})
				g.Edges += 2
			}
		}
		return true
	})
	return g
}

func skip(v ir.Value) bool {
	if v == nil {
		return true
	}
	_, isConst := v.(*ir.Const)
	_, isUndef := v.(*ir.Undef)
	return isConst || isUndef
}

// All facts attach to the newly defined node and reference only
// values defined no later than it. This def-ward orientation is what
// keeps proofs sound: a branch-derived fact lives on the sigma name
// that exists only where the branch went, never on the original
// operand, whose live range spans both outcomes.

// exact records v = u + w.
func (g *Graph) exact(v, u ir.Value, w int64) {
	if skip(u) {
		return
	}
	g.ub[v] = append(g.ub[v], edge{u, w})
	g.lb[v] = append(g.lb[v], edge{u, w})
	g.Edges += 2
}

// upper records v ≤ b + w.
func (g *Graph) upper(v, b ir.Value, w int64) {
	if skip(b) {
		return
	}
	g.ub[v] = append(g.ub[v], edge{b, w})
	g.Edges++
}

// lowerB records v ≥ b + w.
func (g *Graph) lowerB(v, b ir.Value, w int64) {
	if skip(b) {
		return
	}
	g.lb[v] = append(g.lb[v], edge{b, w})
	g.Edges++
}

func sigmaSibling(in *ir.Instr) *ir.Instr {
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

// ProveLE reports whether the graph proves a ≤ b + c, on demand.
// Both proof shapes are attempted: an upper-bound walk from a and a
// lower-bound walk from b.
func (g *Graph) ProveLE(a, b ir.Value, c int64) bool {
	p := &prover{g: g, active: map[ir.Value]int64{}, memo: map[memoKey]proofResult{}}
	if p.proveUB(b, a, c) == proofTrue {
		return true
	}
	p = &prover{g: g, lower: true, active: map[ir.Value]int64{}, memo: map[memoKey]proofResult{}}
	return p.proveLB(a, b, -c) == proofTrue
}

// LessThan reports whether a < b is provable (a ≤ b - 1).
func (g *Graph) LessThan(a, b ir.Value) bool { return g.ProveLE(a, b, -1) }

type memoKey struct {
	v ir.Value
	c int64
}

type prover struct {
	g      *Graph
	lower  bool
	active map[ir.Value]int64
	memo   map[memoKey]proofResult
	steps  int
}

// proofStepLimit bounds a single demand-driven proof; graphs from
// real programs never get close, but the limit keeps adversarial
// cycles cheap.
const proofStepLimit = 100_000

// proveUB decides "v ≤ src + c" by walking upper-bound edges of v.
func (p *prover) proveUB(src, v ir.Value, c int64) proofResult {
	p.steps++
	if p.steps > proofStepLimit {
		return proofFalse
	}
	if v == src {
		if c >= 0 {
			return proofTrue
		}
		return proofFalse
	}
	if r, ok := p.memo[memoKey{v, c}]; ok {
		return r
	}
	if start, ok := p.active[v]; ok {
		// Harmless (non-amplifying) cycle when the demand did not
		// tighten while going around.
		if c >= start {
			return proofReduced
		}
		return proofFalse
	}
	edges := p.g.ub[v]
	if len(edges) == 0 {
		return proofFalse
	}
	p.active[v] = c
	result := p.combine(edges, p.g.isPhi[v], func(e edge) proofResult {
		return p.proveUB(src, e.from, c-e.w)
	})
	delete(p.active, v)
	p.memo[memoKey{v, c}] = result
	return result
}

// proveLB decides "v ≥ src + c" by walking lower-bound edges of v.
func (p *prover) proveLB(src, v ir.Value, c int64) proofResult {
	p.steps++
	if p.steps > proofStepLimit {
		return proofFalse
	}
	if v == src {
		if c <= 0 {
			return proofTrue
		}
		return proofFalse
	}
	if r, ok := p.memo[memoKey{v, c}]; ok {
		return r
	}
	if start, ok := p.active[v]; ok {
		if c <= start {
			return proofReduced
		}
		return proofFalse
	}
	edges := p.g.lb[v]
	if len(edges) == 0 {
		return proofFalse
	}
	p.active[v] = c
	result := p.combine(edges, p.g.isPhi[v], func(e edge) proofResult {
		return p.proveLB(src, e.from, c-e.w)
	})
	delete(p.active, v)
	p.memo[memoKey{v, c}] = result
	return result
}

// combine folds edge sub-proofs: conjunctive (min) at phi nodes,
// disjunctive (max) elsewhere.
func (p *prover) combine(edges []edge, phi bool, sub func(edge) proofResult) proofResult {
	if phi {
		result := proofTrue
		for _, e := range edges {
			if r := sub(e); r < result {
				result = r
			}
			if result == proofFalse {
				break
			}
		}
		return result
	}
	result := proofFalse
	for _, e := range edges {
		if r := sub(e); r > result {
			result = r
		}
		if result == proofTrue {
			break
		}
	}
	return result
}

// Analysis adapts ABCD to the alias.Analysis interface using the same
// disambiguation criteria as SRAA (Definition 3.11), so the two
// less-than engines can be compared head to head.
type Analysis struct {
	graphs map[*ir.Func]*Graph
}

// NewAnalysis builds inequality graphs for every function of m (in
// e-SSA form).
func NewAnalysis(m *ir.Module) *Analysis {
	a := &Analysis{graphs: map[*ir.Func]*Graph{}}
	for _, f := range m.Funcs {
		a.graphs[f] = BuildGraph(f)
	}
	return a
}

// Name returns "ABCD".
func (a *Analysis) Name() string { return "ABCD" }

// LessThan answers x < y within one function.
func (a *Analysis) LessThan(x, y ir.Value) bool {
	f := funcOf(x)
	if f == nil || funcOf(y) != f {
		return false
	}
	g := a.graphs[f]
	if g == nil {
		return false
	}
	return g.LessThan(x, y)
}

// Alias applies Definition 3.11 with ABCD as the inequality engine.
func (a *Analysis) Alias(la, lb alias.Location) alias.Result {
	p1, p2 := la.Ptr, lb.Ptr
	if a.LessThan(p1, p2) || a.LessThan(p2, p1) {
		return alias.NoAlias
	}
	b1, x1, ok1 := gepParts(p1)
	b2, x2, ok2 := gepParts(p2)
	if ok1 && ok2 && b1 == b2 {
		if a.LessThan(x1, x2) || a.LessThan(x2, x1) {
			return alias.NoAlias
		}
	}
	return alias.MayAlias
}

func gepParts(v ir.Value) (base, idx ir.Value, ok bool) {
	in, isInstr := v.(*ir.Instr)
	if !isInstr || in.Op != ir.OpGEP {
		return nil, nil, false
	}
	return in.Args[0], in.Args[1], true
}

func funcOf(v ir.Value) *ir.Func {
	switch v := v.(type) {
	case *ir.Param:
		return v.Fn
	case *ir.Instr:
		if v.Blk != nil {
			return v.Blk.Fn
		}
	}
	return nil
}
