package rangeanal

import (
	"context"

	"repro/internal/budget"
	"repro/internal/csr"
	"repro/internal/ir"
)

// Result holds the computed ranges for one module.
type Result struct {
	// nodes numbers the tracked values: the integer parameters and
	// integer-typed instruction results of the analyzed functions.
	// ranges[n] is the interval of the value with node n.
	nodes  nodeIndex
	ranges []Interval
	// err records budget exhaustion during solving; the ranges are
	// still sound (see AnalyzeCtx) but possibly all-Top.
	err error
}

// Err reports whether the analysis ran out of budget (the error wraps
// budget.ErrExceeded) or nil when it reached its fixed point.
func (r *Result) Err() error { return r.err }

// Empty returns a Result with no information: every value reports
// Top. It is the sound degraded substitute when the range stage
// fails entirely.
func Empty() *Result { return &Result{} }

// Range returns the interval of v. Constants evaluate directly;
// pointer-typed and unanalyzed values report Top.
func (r *Result) Range(v ir.Value) Interval {
	if c, ok := v.(*ir.Const); ok {
		return Point(c.Val)
	}
	if n, ok := r.nodes.of(v); ok {
		return r.ranges[n]
	}
	return Top
}

// nodeIndex maps the module's values to node ids: node[vals.Slot(v)]
// is v's node, or -1 when v is untracked. The zero nodeIndex tracks
// nothing.
type nodeIndex struct {
	vals *ir.ValueTable
	node []int32
}

// of returns v's node, or false when v is not tracked: not an integer
// value of an analyzed function of the module, or created after the
// analysis.
func (x nodeIndex) of(v ir.Value) (int32, bool) {
	s := x.vals.Slot(v)
	if s < 0 || x.node[s] < 0 {
		return 0, false
	}
	return x.node[s], true
}

// IsStrictlyPositive reports whether v > 0 always holds. Implements
// essa.RangeOracle.
func (r *Result) IsStrictlyPositive(v ir.Value) bool {
	iv := r.Range(v)
	return !iv.IsEmpty() && iv.Lo > 0
}

// IsStrictlyNegative reports whether v < 0 always holds. Implements
// essa.RangeOracle.
func (r *Result) IsStrictlyNegative(v ir.Value) bool {
	iv := r.Range(v)
	return !iv.IsEmpty() && iv.Hi < 0
}

// IsNonNegative reports whether v >= 0 always holds.
func (r *Result) IsNonNegative(v ir.Value) bool {
	iv := r.Range(v)
	return !iv.IsEmpty() && iv.Lo >= 0
}

// widenThreshold is how many growing updates a node tolerates before
// its bounds jump to infinity.
const widenThreshold = 4

// narrowPasses is how many descending sweeps refine the widened fixed
// point using sigma constraints.
const narrowPasses = 3

// shrinkCap bounds how often one node may shrink during the ascending
// phase. eval is monotone, so a shrink only happens when widening
// overshot and the node's inputs have since stabilized below it —
// normally that corrects once and stays put. But on cyclic
// inter-procedural dependency structures (long call chains feeding
// parameters) the correction can re-enable growth upstream and the
// ascent oscillates: widen to infinity, shrink back, re-grow, re-widen,
// without ever reaching a fixed point. Past the cap a node keeps its
// over-approximation, which is still sound (every post-fixed point
// contains the least fixed point) and restores guaranteed termination;
// the descending phase then narrows it like any other widened value.
const shrinkCap = 8

// Analyze computes ranges for every integer SSA value in m,
// inter-procedurally: parameters union the actual arguments of all
// call sites, and call results union the callee's return ranges.
// Parameters are bound to their call sites only in functions that a
// function with no in-module caller (an entry point such as main)
// reaches through calls. Every other function may be called from
// outside the module with any argument, so its parameters are Top:
// entry points themselves, and functions called only by themselves or
// from a call cycle that nothing outside it calls.
func Analyze(m *ir.Module) *Result {
	return AnalyzeCtx(context.Background(), m, Opts{})
}

// Opts configures a hardened run of the module analysis.
type Opts struct {
	// Budget bounds the whole module's solve (ranges are a module-
	// scope, inter-procedural stage).
	Budget budget.Spec
	// Skip lists functions to leave out: their bodies are not
	// traversed (the harness passes functions broken by an upstream
	// stage), their values report Top, and calls to them are treated
	// like calls to external code.
	Skip map[*ir.Func]bool
}

// AnalyzeCtx is Analyze under a context and budget. The budget ticks
// once per worklist pop and once per narrowing evaluation. Soundness
// of the partial result: aborting the ascending (widening) phase
// leaves intervals smaller than the fixed point, which would be
// unsound, so exhaustion there discards everything — the result
// reports Top for every value. Aborting the descending (narrowing)
// phase keeps the current environment: every narrowing step starts
// from a sound over-approximation and intersects it with a consequence
// of sound inputs, so each intermediate state is itself sound.
func AnalyzeCtx(ctx context.Context, m *ir.Module, opt Opts) *Result {
	s, nodes := build(m, opt.Skip)
	bgt := opt.Budget.Start(ctx)
	if s.solve(bgt) {
		return &Result{err: bgt.Err()}
	}
	n := len(s.nodes)
	return &Result{nodes: nodes, ranges: s.env[:n:n], err: bgt.Err()}
}

// kind selects a node's transfer function over env slots a and b.
type kind uint8

const (
	kCopy  kind = iota // env[a]
	kAdd               // env[a] + env[b]
	kSub               // env[a] - env[b]
	kMul               // env[a] * env[b]
	kDiv               // env[a] / env[b]
	kRem               // env[a] % env[b]
	kSigma             // env[a] ∩ refine(pred, env[b])
	kUnion             // the union of env[ops[a:b]]
)

var binKind = [...]kind{ir.OpAdd: kAdd, ir.OpSub: kSub, ir.OpMul: kMul, ir.OpDiv: kDiv, ir.OpRem: kRem}

// node is one tracked value with its operands resolved to env slots.
type node struct {
	kind kind
	pred uint8 // the sigma's ir.CmpPred, oriented to its operand
	a, b int32
}

// solver is the module's constraint system over dense state. Node i is
// the i-th tracked value and env[i] its current interval. The slots
// after the nodes are read-only: one per distinct fixed interval an
// operand or result takes (a constant, a mask bound, a comparison's
// [0, 1]), one of them Top, shared by every untracked value.
type solver struct {
	nodes []node
	ops   []int32 // the operand slots of kUnion nodes
	env   []Interval
	// The nodes to re-evaluate when node i changes are
	// deps[depOff[i]:depOff[i+1]], in the order they were added.
	depOff []int32
	deps   []int32
}

// fnInfo locates one analyzed function's nodes, returns and calls.
type fnInfo struct {
	f *ir.Func
	// first is the node id of its first integer parameter; the
	// parameters are first .. first+params-1, numbered from paramBase
	// among all functions' parameters.
	first, params, paramBase int32
	// ops[retLo:retHi] are the slots of its return operands.
	retLo, retHi int32
	// sites[siteLo:siteHi] are its calls to analyzed functions.
	siteLo, siteHi int32
}

// site is a call to a function that is not skipped; id is the call's
// node, or -1 when its result is not tracked.
type site struct {
	in *ir.Instr
	id int32
}

// builder resolves a module into a solver.
type builder struct {
	s     *solver
	nodes nodeIndex
	n     int32
	fns   []fnInfo
	// fnAt[i] is the index into fns of the function at position i of
	// the module, or -1 when it is skipped.
	fnAt  []int32
	fixed map[Interval]int32
	top   int32
	// edges are the dependences as (source, dependent) pairs, in the
	// order the schedule requires.
	edges []csr.Pair[int32]
}

// slot resolves an operand: a node's id, a constant's read-only slot,
// or the Top slot for anything untracked.
func (b *builder) slot(v ir.Value) int32 {
	if c, ok := v.(*ir.Const); ok {
		return b.fixedSlot(Point(c.Val))
	}
	if id, ok := b.nodes.of(v); ok {
		return id
	}
	return b.top
}

// fnOf returns the index into fns of f, or false when f is skipped or
// not a function of the module.
func (b *builder) fnOf(f *ir.Func) (int32, bool) {
	p := b.nodes.vals.FuncIndex(f)
	if p < 0 || b.fnAt[p] < 0 {
		return 0, false
	}
	return b.fnAt[p], true
}

// fixedSlot returns the read-only slot holding iv.
func (b *builder) fixedSlot(iv Interval) int32 {
	if s, ok := b.fixed[iv]; ok {
		return s
	}
	s := int32(len(b.s.env))
	b.s.env = append(b.s.env, iv)
	b.fixed[iv] = s
	return s
}

// dep records that node to is re-evaluated when slot from changes.
// Read-only slots never change and untracked targets are not
// evaluated, so both are dropped.
func (b *builder) dep(from, to int32) {
	if from < b.n && to >= 0 {
		b.edges = append(b.edges, csr.Pair[int32]{Key: from, Val: to})
	}
}

// build numbers the tracked values of m and resolves their operands
// and dependences. Node ids follow the module: per function in order,
// integer parameters first, then integer results in block order; the
// initial worklist and the narrowing sweeps run in id order. Each
// value's dependents are its users within its function in instruction
// order, then the parameters its call arguments feed and the calls
// its returns feed, in call-site order. FIFO order, and with it
// widening, depends on both orders.
func build(m *ir.Module, skip map[*ir.Func]bool) (*solver, nodeIndex) {
	// Count first so that every slice is allocated once at its final
	// size: growing them instead allocates about 60% more on a
	// 10k-function module.
	var nodes, rets, calls, operands int
	for _, f := range m.Funcs {
		if skip[f] {
			continue
		}
		for _, p := range f.Params {
			if ir.IsInt(p.Typ) {
				nodes++
			}
		}
		f.Instrs(func(in *ir.Instr) bool {
			switch {
			case in.Op == ir.OpRet:
				rets++
			case in.Op == ir.OpCall:
				calls++
				operands += len(in.Args)
			}
			if in.HasResult() && ir.IsInt(in.Typ) {
				nodes++
				operands += len(in.Args) + 1
			}
			return true
		})
	}

	// Number the nodes and collect returns and call sites.
	vals := ir.NewValueTable(m)
	nodeOf := make([]int32, vals.Len())
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	fns := make([]fnInfo, 0, len(m.Funcs))
	fnAt := make([]int32, len(m.Funcs))
	retVals := make([]ir.Value, 0, rets)
	sites := make([]site, 0, calls)
	var id, params int32
	for pos, f := range m.Funcs {
		fnAt[pos] = -1
		if skip[f] {
			continue
		}
		base := vals.FuncBase(pos)
		fi := fnInfo{f: f, first: id, paramBase: params, retLo: int32(len(retVals)), siteLo: int32(len(sites))}
		for _, p := range f.Params {
			if ir.IsInt(p.Typ) {
				nodeOf[base+p.ID()] = id
				id++
			}
		}
		fi.params = id - fi.first
		params += fi.params
		f.Instrs(func(in *ir.Instr) bool {
			if in.Op == ir.OpRet && len(in.Args) == 1 {
				retVals = append(retVals, in.Args[0])
			}
			nid := int32(-1)
			if in.HasResult() && ir.IsInt(in.Typ) {
				nid = id
				nodeOf[base+in.ID()] = id
				id++
			}
			if callee := in.Callee(); in.Op == ir.OpCall && callee != nil && !skip[callee] {
				sites = append(sites, site{in, nid})
			}
			return true
		})
		fi.retHi = int32(len(retVals))
		fi.siteHi = int32(len(sites))
		fnAt[pos] = int32(len(fns))
		fns = append(fns, fi)
	}
	idx := nodeIndex{vals: vals, node: nodeOf}

	s := &solver{nodes: make([]node, id), ops: make([]int32, 0, len(retVals)+operands)}
	s.env = make([]Interval, id, int(id)+64)
	for i := range s.env {
		s.env[i] = Bottom
	}
	b := &builder{s: s, nodes: idx, n: id, fns: fns, fnAt: fnAt, fixed: map[Interval]int32{}, edges: make([]csr.Pair[int32], 0, operands)}
	b.top = b.fixedSlot(Top)
	for _, v := range retVals {
		s.ops = append(s.ops, b.slot(v))
	}

	// Resolve every instruction node; its operands are its
	// dependences.
	for i := range fns {
		id := fns[i].first + fns[i].params
		fns[i].f.Instrs(func(in *ir.Instr) bool {
			if in.HasResult() && ir.IsInt(in.Typ) {
				s.nodes[id] = b.instr(in, id)
				id++
			}
			return true
		})
	}

	// Bind call arguments to parameters and returns to call results.
	callers := make([]int32, len(fns))
	callees := make([]int32, 0, len(sites))
	calleeOff := make([]int32, len(fns)+1)
	var args []csr.Pair[int32] // (parameter index, argument slot)
	for i := range fns {
		for _, st := range sites[fns[i].siteLo:fns[i].siteHi] {
			ci, ok := b.fnOf(st.in.Callee())
			if !ok {
				continue // outside the module: no parameters, no returns
			}
			callers[ci]++
			callees = append(callees, ci)
			c := &fns[ci]
			p := int32(0)
			for j, arg := range st.in.Args {
				if j >= len(c.f.Params) {
					break
				}
				if !ir.IsInt(c.f.Params[j].Typ) {
					continue
				}
				a := b.slot(arg)
				args = append(args, csr.Pair[int32]{Key: c.paramBase + p, Val: a})
				b.dep(a, c.first+p)
				p++
			}
			for _, r := range s.ops[c.retLo:c.retHi] {
				b.dep(r, st.id)
			}
		}
		calleeOff[i+1] = int32(len(callees))
	}
	// The entry rule. Functions without an in-module caller may be
	// called from outside with any argument, and so may every function
	// they do not reach through calls: only the functions reached bind
	// their parameters to their call sites.
	reached := csr.Reached(callers, callees, calleeOff)
	argOff, argSlots := csr.Group(int(params), args)
	base := int32(len(s.ops))
	s.ops = append(s.ops, argSlots...)
	for i, fi := range fns {
		for k := int32(0); k < fi.params; k++ {
			nd := node{kind: kCopy, a: b.top}
			if reached[i] {
				q := fi.paramBase + k
				nd = node{kind: kUnion, a: base + argOff[q], b: base + argOff[q+1]}
			}
			s.nodes[fi.first+k] = nd
		}
	}
	s.depOff, s.deps = csr.Group(int(id), b.edges)
	return s, idx
}

// instr resolves the integer instruction in, node id, recording its
// dependences on its operands (and a sigma's on its bound).
func (b *builder) instr(in *ir.Instr, id int32) node {
	s := b.s
	lo := int32(len(s.ops))
	for _, arg := range in.Args {
		a := b.slot(arg)
		s.ops = append(s.ops, a)
		b.dep(a, id)
	}
	args := s.ops[lo:]
	nd := node{kind: kCopy, a: b.top}
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem:
		nd = node{kind: binKind[in.Op], a: args[0], b: args[1]}
	case ir.OpAnd:
		// x & m with a non-negative constant mask is within [0, m].
		if c, ok := in.Args[1].(*ir.Const); ok && c.Val >= 0 {
			nd.a = b.fixedSlot(Interval{0, c.Val})
		} else if c, ok := in.Args[0].(*ir.Const); ok && c.Val >= 0 {
			nd.a = b.fixedSlot(Interval{0, c.Val})
		}
	case ir.OpICmp:
		nd.a = b.fixedSlot(Interval{0, 1})
	case ir.OpPhi:
		return node{kind: kUnion, a: lo, b: int32(len(s.ops))}
	case ir.OpSigma:
		// The sigma's refinement also depends on the other compare
		// operand.
		bound := b.slot(in.Cmp().Args[1-in.CmpSide])
		b.dep(bound, id)
		pred := in.Cmp().Pred
		if in.CmpSide == 1 {
			pred = pred.Swap()
		}
		if !in.OnTrue {
			pred = pred.Negate()
		}
		nd = node{kind: kSigma, pred: uint8(pred), a: args[0], b: bound}
	case ir.OpCopy:
		nd.a = args[0]
	case ir.OpCall:
		// The union of the callee's returns; Top for external code
		// and for callees that never return a value.
		if ci, ok := b.fnOf(in.Callee()); ok {
			if c := b.fns[ci]; c.retHi > c.retLo {
				nd = node{kind: kUnion, a: c.retLo, b: c.retHi}
			}
		}
	}
	// Loads, shifts, xor/or and other results escaping the analysis
	// stay Top. Only union nodes keep their operands in ops.
	s.ops = s.ops[:lo]
	return nd
}

// eval computes node i's abstract value from the current environment.
func (s *solver) eval(i int32) Interval {
	nd := &s.nodes[i]
	env := s.env
	switch nd.kind {
	case kAdd:
		return Add(env[nd.a], env[nd.b])
	case kSub:
		return Sub(env[nd.a], env[nd.b])
	case kMul:
		return Mul(env[nd.a], env[nd.b])
	case kDiv:
		return Div(env[nd.a], env[nd.b])
	case kRem:
		return Rem(env[nd.a], env[nd.b])
	case kSigma:
		return Intersect(env[nd.a], refine(ir.CmpPred(nd.pred), env[nd.b]))
	case kUnion:
		out := Bottom
		for _, o := range s.ops[nd.a:nd.b] {
			out = Union(out, env[o])
		}
		return out
	}
	return env[nd.a]
}

// refine returns the interval a value must lie in when it stands in
// relation pred to some value in bound.
func refine(pred ir.CmpPred, bound Interval) Interval {
	if bound.IsEmpty() {
		// The bound is not yet evaluated (ascending phase): no
		// constraint can be applied soundly except through pred's
		// shape with infinite endpoints.
		bound = Top
	}
	switch pred {
	case ir.CmpLT:
		if bound.Hi == PosInf {
			return Top
		}
		return Interval{NegInf, bound.Hi - 1}
	case ir.CmpLE:
		return Interval{NegInf, bound.Hi}
	case ir.CmpGT:
		if bound.Lo == NegInf {
			return Top
		}
		return Interval{bound.Lo + 1, PosInf}
	case ir.CmpGE:
		return Interval{bound.Lo, PosInf}
	case ir.CmpEQ:
		return bound
	case ir.CmpNE:
		return Top
	}
	return Top
}

// solve runs the ascending phase to its widened fixed point, then a
// bounded narrowing. It reports aborted=true only when the budget
// expired mid-ascent, in which case the environment holds an unsound
// under-approximation that the caller must discard. Exhaustion during
// narrowing is not an abort: the caller keeps the (sound) env as-is.
func (s *solver) solve(bgt *budget.B) (aborted bool) {
	n := int32(len(s.nodes))
	env := s.env
	// Ascending phase with widening: a FIFO ring over the nodes, each
	// queued at most once, initially all of them in id order.
	queue := make([]int32, n)
	inWork := make([]bool, n)
	for i := range queue {
		queue[i] = int32(i)
		inWork[i] = true
	}
	widenCnt := make([]uint8, n)
	shrinkCnt := make([]uint8, n)
	head, size := int32(0), n
	for size > 0 {
		if bgt.Tick() != nil {
			return true
		}
		i := queue[head]
		if head++; head == n {
			head = 0
		}
		size--
		inWork[i] = false
		next := s.eval(i)
		cur := env[i]
		if next.Eq(cur) {
			continue
		}
		if grew := Union(cur, next); !grew.Eq(cur) {
			// The count saturates past the threshold.
			if widenCnt[i] <= widenThreshold {
				widenCnt[i]++
			}
			if widenCnt[i] > widenThreshold {
				next = Widen(cur, next)
			} else {
				next = grew
			}
		} else {
			// next ⊆ cur: widening overshot. Accept the correction a
			// bounded number of times, then hold the over-approximation
			// so oscillating cycles cannot stall the ascent.
			if shrinkCnt[i] >= shrinkCap {
				continue
			}
			shrinkCnt[i]++
		}
		if next.Eq(cur) {
			continue
		}
		env[i] = next
		for _, d := range s.deps[s.depOff[i]:s.depOff[i+1]] {
			if !inWork[d] {
				inWork[d] = true
				tail := head + size
				if tail >= n {
					tail -= n
				}
				queue[tail] = d
				size++
			}
		}
	}
	// Descending (narrowing) phase: a bounded number of sweeps lets
	// sigma intersections pull infinite bounds back to the branch
	// limits without endangering termination.
	for pass := 0; pass < narrowPasses; pass++ {
		changed := false
		for i := int32(0); i < n; i++ {
			if bgt.Tick() != nil {
				return false
			}
			cur := env[i]
			if refined := Intersect(cur, s.eval(i)); !refined.Eq(cur) {
				env[i] = refined
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return false
}
