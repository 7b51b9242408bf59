// Package steens implements a Steensgaard-style unification-based
// points-to analysis: the fast, coarse corner of the precision/speed
// frontier, against which the paper's strict-inequality analysis and
// the Andersen baseline are compared.
//
// Where Andersen solves subset constraints (pts(p) ⊇ pts(q)) to a
// least fixed point, Steensgaard collapses every constraint into an
// equality: an assignment p = q unifies what p and q point to. Each
// storage location is represented by an equivalence class in a
// union-find structure, and each class carries one "pointee" link —
// the class its contents point into. Unifying two classes recursively
// unifies their pointees, so a whole module is analyzed in near-linear
// time (inverse-Ackermann amortized per constraint) at the cost of
// precision: flow direction is forgotten, so everything assigned
// through a pointer chain lands in one class.
//
// Soundness contract (checked as a property test in internal/alias):
// the analysis over-approximates Andersen — whenever Andersen answers
// MayAlias, so does this analysis; NoAlias here implies NoAlias there.
// Unification alone does not give that for free: Andersen
// conservatively answers MayAlias when a points-to set is EMPTY, while
// naive class comparison would answer NoAlias for two never-assigned
// pointers in distinct classes. The analysis therefore tracks a
// per-value "grounded" bit — an under-approximate witness that
// Andersen's set is provably non-empty — seeded at address-of sites
// and unknown-pointer bindings and propagated only along edges that
// mirror Andersen's ⊇-edges from those seeds (copies, phis, sigmas,
// geps, call bindings; not loads). NoAlias is answered only for
// grounded, unknown-free, object-bearing, distinct classes.
package steens

import (
	"context"

	"repro/internal/alias"
	"repro/internal/budget"
	"repro/internal/csr"
	"repro/internal/ir"
)

// Analysis holds the solved unification state.
type Analysis struct {
	u uf
	// ptd[c] is the pointee node of class representative c, or -1 when
	// the class has no pointee yet. Only meaningful for reps; kept
	// consistent lazily through find.
	ptd []int32
	// objCount[c] counts allocation sites in class c (rep-valid).
	objCount []int32
	// vals numbers the module's values as they were analyzed;
	// nodeOf[vals.Slot(v)] is v's node, or -1 when v has none.
	vals   *ir.ValueTable
	nodeOf []int32
	// unknown is the node of the universal unknown object; any class
	// containing it stands for memory the module cannot account for.
	unknown int32
	// grounded[vals.Slot(v)] marks values whose Andersen points-to set
	// is provably non-empty (see the package comment).
	grounded []bool
	// degraded records budget exhaustion: a partially unified state
	// has too few merges and would answer NoAlias unsoundly, so every
	// query collapses to MayAlias.
	degraded error
}

// Name returns "ST", the analysis's label in reports.
func (a *Analysis) Name() string { return "ST" }

// Degraded returns the budget-exhaustion error when the unification
// was interrupted, or nil for a trustworthy result.
func (a *Analysis) Degraded() error { return a.degraded }

// Opts configures a hardened run.
type Opts struct {
	// Budget bounds the whole-module analysis.
	Budget budget.Spec
	// Skip lists functions whose bodies must not be traversed; calls
	// to them are handled like external calls.
	Skip map[*ir.Func]bool
}

// Unanalyzed returns a degraded Analysis carrying cause: every query
// answers MayAlias.
func Unanalyzed(cause error) *Analysis {
	return &Analysis{degraded: cause}
}

// Analyze runs the analysis on a whole module.
func Analyze(m *ir.Module) *Analysis {
	return AnalyzeCtx(context.Background(), m, Opts{})
}

// AnalyzeCtx is Analyze under a context, budget and skip set.
func AnalyzeCtx(ctx context.Context, m *ir.Module, opt Opts) *Analysis {
	a := &Analysis{vals: ir.NewValueTable(m)}
	a.nodeOf = make([]int32, a.vals.Len())
	for i := range a.nodeOf {
		a.nodeOf[i] = -1
	}
	a.grounded = make([]bool, a.vals.Len())
	a.unknown = a.newNode()
	a.objCount[a.unknown] = 1
	bgt := opt.Budget.Start(ctx)
	s := &unifier{a: a, bgt: bgt, consts: map[*ir.Const]int32{}, undefs: map[*ir.Undef]int32{}}
	// The unknown object's contents are themselves unknown: its class
	// is its own pointee, so any chain of loads out of unknown memory
	// stays in the unknown class.
	s.joinPtd(a.unknown, a.unknown)

	s.applyModule(m, opt)
	if err := bgt.Err(); err != nil {
		a.degraded = err
		return a
	}
	s.propagateGrounded()
	a.degraded = bgt.Err()
	a.u.flatten()
	return a
}

func (a *Analysis) newNode() int32 {
	id := a.u.makeNode()
	a.ptd = append(a.ptd, -1)
	a.objCount = append(a.objCount, 0)
	return id
}

// classPtd returns the pointee node of n's class, creating a fresh one
// when the class has none yet.
func (a *Analysis) classPtd(n int32) int32 {
	c := a.u.find(n)
	if a.ptd[c] == -1 {
		a.ptd[c] = a.newNode()
	}
	return a.ptd[c]
}

// unifier applies constraints; joins cascade through pointee links via
// an explicit queue so deep pointer chains cannot overflow the stack.
type unifier struct {
	a   *Analysis
	bgt *budget.B
	// edges are the grounding edges (mirrors of Andersen's ⊇-edges
	// from possibly-non-empty sources), as pairs of slots.
	edges []csr.Pair[int32]
	// consts and undefs hold the nodes of the constants and undefs
	// that constraints mention. They have no slot, and one that
	// several constraints share unifies them all, so they are told
	// apart by identity.
	consts map[*ir.Const]int32
	undefs map[*ir.Undef]int32
}

// node returns v's node, creating it on first use.
func (s *unifier) node(v ir.Value) int32 {
	a := s.a
	if slot := a.vals.Slot(v); slot >= 0 {
		if a.nodeOf[slot] < 0 {
			a.nodeOf[slot] = a.newNode()
		}
		return a.nodeOf[slot]
	}
	switch v := v.(type) {
	case *ir.Const:
		return nodeByIdentity(s.consts, v, a)
	case *ir.Undef:
		return nodeByIdentity(s.undefs, v, a)
	}
	// A value of no function of the module: verified IR has none.
	return a.newNode()
}

func nodeByIdentity[K comparable](nodes map[K]int32, k K, a *Analysis) int32 {
	n, ok := nodes[k]
	if !ok {
		n = a.newNode()
		nodes[k] = n
	}
	return n
}

// join unifies the classes of two nodes, cascading through pointees.
func (s *unifier) join(x, y int32) {
	type pair struct{ x, y int32 }
	queue := []pair{{x, y}}
	for len(queue) > 0 {
		if s.bgt.Tick() != nil {
			return
		}
		p := queue[0]
		queue = queue[1:]
		a := s.a
		w, l := a.u.union(p.x, p.y)
		if w == l {
			continue
		}
		a.objCount[w] += a.objCount[l]
		pw, pl := a.ptd[w], a.ptd[l]
		a.ptd[l] = -1
		if pw == -1 {
			a.ptd[w] = pl
		} else if pl != -1 {
			queue = append(queue, pair{pw, pl})
		}
	}
}

// joinPtd unifies node n's class-pointee with node m's class.
func (s *unifier) joinPtd(n, m int32) {
	s.join(s.a.classPtd(n), m)
}

// applyModule walks the module and applies every constraint, mirroring
// the structural rules of the Andersen traversal so the
// over-approximation property holds rule by rule.
func (s *unifier) applyModule(m *ir.Module, opt Opts) {
	a := s.a
	// Address-of sites: the site's value points at its object, and the
	// value's Andersen set is certainly non-empty.
	seedObj := func(site ir.Value) {
		n := s.node(site)
		obj := a.newNode()
		a.objCount[obj] = 1
		s.joinPtd(n, obj)
		a.grounded[a.vals.Slot(site)] = true
	}
	for _, g := range m.Globals {
		seedObj(g)
	}
	callers := map[*ir.Func]bool{}
	for _, f := range m.Funcs {
		if opt.Skip[f] {
			continue
		}
		f.Instrs(func(in *ir.Instr) bool {
			switch in.Op {
			case ir.OpAlloca, ir.OpMalloc:
				seedObj(in)
			case ir.OpCall:
				if callee := in.Callee(); callee != nil && !opt.Skip[callee] {
					callers[callee] = true
				}
			}
			return true
		})
	}
	// assignUnknown binds v to the unknown object's class: Andersen
	// adds the unknown object to pts(v), so v is grounded.
	assignUnknown := func(v ir.Value) {
		s.joinPtd(s.node(v), a.unknown)
		a.grounded[a.vals.Slot(v)] = true
	}
	// copy is an assignment dst = src: unify the pointees and record a
	// grounding edge. A source without a slot is never grounded, so it
	// needs no edge.
	cp := func(src, dst ir.Value) {
		if !ir.IsPtr(src.Type()) && !isPtrLike(src) {
			return
		}
		s.join(a.classPtd(s.node(src)), a.classPtd(s.node(dst)))
		if from := a.vals.Slot(src); from >= 0 {
			s.edges = append(s.edges, csr.Pair[int32]{Key: int32(from), Val: int32(a.vals.Slot(dst))})
		}
	}
	for _, f := range m.Funcs {
		if opt.Skip[f] {
			continue
		}
		f.Instrs(func(in *ir.Instr) bool {
			if s.bgt.Tick() != nil {
				return false
			}
			switch in.Op {
			case ir.OpGEP, ir.OpCopy, ir.OpSigma:
				cp(in.Args[0], in)
			case ir.OpPhi:
				for _, v := range in.Args {
					cp(v, in)
				}
			case ir.OpLoad:
				if ir.IsPtr(in.Typ) {
					// x = *p: x's value is the contents of the class p
					// points into.
					t := a.classPtd(s.node(in.Args[0]))
					s.join(a.classPtd(t), a.classPtd(s.node(in)))
					// Not a grounding edge: Andersen's pts(x) can be
					// empty even when pts(p) is not.
				}
			case ir.OpStore:
				if ir.IsPtr(in.Args[0].Type()) {
					// *p = v: the contents of p's pointee class absorb
					// v's pointees.
					t := a.classPtd(s.node(in.Args[1]))
					s.join(a.classPtd(t), a.classPtd(s.node(in.Args[0])))
				}
			case ir.OpCall:
				if callee := in.Callee(); callee != nil && !opt.Skip[callee] {
					for i, arg := range in.Args {
						if i < len(callee.Params) && ir.IsPtr(callee.Params[i].Typ) {
							cp(arg, callee.Params[i])
						}
					}
					if ir.IsPtr(in.Typ) {
						callee.Instrs(func(r *ir.Instr) bool {
							if r.Op == ir.OpRet && len(r.Args) == 1 {
								cp(r.Args[0], in)
							}
							return true
						})
					}
				} else {
					// External (or skipped) call: pointer arguments
					// escape into unknown memory; a pointer result is
					// unknown.
					for _, arg := range in.Args {
						if ir.IsPtr(arg.Type()) {
							t := a.classPtd(s.node(arg))
							s.joinPtd(t, a.unknown)
						}
					}
					if ir.IsPtr(in.Typ) {
						assignUnknown(in)
					}
				}
			}
			return true
		})
	}
	// Parameters of functions with no in-module caller hold unknown
	// pointers.
	for _, f := range m.Funcs {
		if callers[f] || opt.Skip[f] {
			continue
		}
		for _, p := range f.Params {
			if ir.IsPtr(p.Typ) {
				assignUnknown(p)
			}
		}
	}
}

func isPtrLike(v ir.Value) bool {
	_, isConst := v.(*ir.Const)
	return !isConst
}

// propagateGrounded closes the grounded set over the recorded edges:
// dst is grounded once any grounded src flows into it, mirroring
// Andersen's pts(dst) ⊇ pts(src) ≠ ∅.
func (s *unifier) propagateGrounded() {
	grounded := s.a.grounded
	off, out := csr.Group(len(grounded), s.edges)
	var work []int32
	for v, g := range grounded {
		if g {
			work = append(work, int32(v))
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, d := range out[off[v]:off[v+1]] {
			if !grounded[d] {
				grounded[d] = true
				work = append(work, d)
			}
		}
	}
}

// classOf returns the points-to class of the value with the given
// slot (the class of what it points at) and whether it has one.
func (a *Analysis) classOf(slot int) (int32, bool) {
	n := a.nodeOf[slot]
	if n < 0 {
		return 0, false
	}
	c := a.u.root(n)
	if a.ptd[c] == -1 {
		return 0, false
	}
	return a.u.root(a.ptd[c]), true
}

// fact is the per-pointer half of the NoAlias rule: v's points-to class
// and whether NoAlias may rest on it at all — the analysis is not
// degraded, and the class exists, is grounded, is not the unknown
// class and holds an object. Each guard discharges one way a naive
// class comparison could contradict Andersen (see the package comment).
type fact struct {
	class  int32
	usable bool
}

func (a *Analysis) factOf(v ir.Value, unknown int32) fact {
	if a.degraded != nil {
		return fact{}
	}
	slot := a.vals.Slot(v)
	if slot < 0 {
		return fact{}
	}
	c, ok := a.classOf(slot)
	return fact{class: c, usable: ok && a.grounded[slot] && c != unknown && a.objCount[c] > 0}
}

// pair reports NoAlias only for two usable, distinct classes.
func pair(x, y fact) alias.Result {
	if x.usable && y.usable && x.class != y.class {
		return alias.NoAlias
	}
	return alias.MayAlias
}

// Alias reports NoAlias only for distinct, grounded, unknown-free,
// object-bearing classes; everything else is MayAlias.
func (a *Analysis) Alias(la, lb alias.Location) alias.Result {
	unk := a.unknownClass()
	return pair(a.factOf(la.Ptr, unk), a.factOf(lb.Ptr, unk))
}

func (a *Analysis) unknownClass() int32 {
	if a.u.len() == 0 {
		return -1 // Unanalyzed: no nodes, and every fact is unusable
	}
	return a.u.root(a.unknown)
}

// NewPrepared implements alias.FuncPreparer: each pointer's class is
// looked up once per function.
func (a *Analysis) NewPrepared() alias.Prepared { return &prepared{a: a} }

type prepared struct {
	a     *Analysis
	facts []fact
}

func (p *prepared) Prepare(_ *ir.Func, ptrs []alias.Pointer) {
	unk := p.a.unknownClass()
	p.facts = p.facts[:0]
	for i := range ptrs {
		p.facts = append(p.facts, p.a.factOf(ptrs[i].Loc.Ptr, unk))
	}
}

func (p *prepared) Pair(i, j int) alias.Result { return pair(p.facts[i], p.facts[j]) }

// Key is the pointer's class when it is usable, else -1: the rule
// reads nothing else, whatever the pointers' bases.
func (p *prepared) Key(i int) int {
	if !p.facts[i].usable {
		return -1
	}
	return int(p.facts[i].class)
}

func (p *prepared) Cross(i, j int) alias.Result { return p.Pair(i, j) }

func (p *prepared) Exceptions(func(i, j int)) {}
