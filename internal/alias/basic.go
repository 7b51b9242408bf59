package alias

import (
	"repro/internal/ir"
)

// Basic is the BA of the paper's evaluation: a reimplementation of
// the heuristics of LLVM's basic-aa. It disambiguates mostly by
// allocation sites — pointers rooted at different identified objects
// cannot alias in well-formed programs — plus constant-offset
// reasoning within a common base.
type Basic struct {
	// vals numbers the module's values, and escaped[vals.Slot(a)]
	// marks an allocation a whose address escapes its function.
	vals    *ir.ValueTable
	escaped []bool
	// UnknownSizes makes the analysis ignore access sizes and
	// offsets, degrading it to pure allocation-site granularity.
	// This mirrors how the paper's applicability experiment queries
	// alias information when building dependence graphs: FlowTracker
	// asks about memory dependences without access sizes, so LLVM's
	// basic-aa cannot use its offset reasoning there (Section 4.3).
	UnknownSizes bool
	// Intraprocedural makes queries between values of different
	// functions answer MayAlias, matching LLVM basic-aa's
	// per-function scope; the paper contrasts this with the
	// inter-procedural LT when counting PDG memory nodes.
	Intraprocedural bool
}

// NewBasic prepares the analysis for module m, precomputing which
// allocations escape their function (address stored, passed to a
// call, or returned).
func NewBasic(m *ir.Module) *Basic {
	b := &Basic{vals: ir.NewValueTable(m)}
	b.escaped = make([]bool, b.vals.Len())
	for _, f := range m.Funcs {
		b.computeEscapes(f)
	}
	return b
}

// computeEscapes flood-fills escape through GEPs and copies: if a
// derived pointer escapes, so does its allocation.
func (ba *Basic) computeEscapes(f *ir.Func) {
	// derived[v] = allocation site(s) v may carry. Conservatively via
	// decompose: only direct chains matter for identified objects.
	var buf []scaledIdx
	escapes := func(v ir.Value) {
		var d decomposed
		d, buf = decompose(v, buf[:0])
		if kind := underlying(d.base); kind == objAlloca || kind == objMalloc {
			if slot := ba.vals.Slot(d.base); slot >= 0 {
				ba.escaped[slot] = true
			}
		}
	}
	f.Instrs(func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpStore:
			// Storing a pointer value publishes it.
			if ir.IsPtr(in.Args[0].Type()) {
				escapes(in.Args[0])
			}
		case ir.OpCall:
			for _, a := range in.Args {
				if ir.IsPtr(a.Type()) {
					escapes(a)
				}
			}
		case ir.OpRet:
			if len(in.Args) == 1 && ir.IsPtr(in.Args[0].Type()) {
				escapes(in.Args[0])
			}
		case ir.OpPhi:
			// A phi merging an allocation loses its identity for our
			// simple decomposition; treat as escaped to stay sound.
			for _, a := range in.Args {
				if ir.IsPtr(a.Type()) {
					escapes(a)
				}
			}
		}
		return true
	})
}

// Name returns "BA".
func (ba *Basic) Name() string { return "BA" }

// Alias implements the basic-aa rules.
func (ba *Basic) Alias(a, b Location) Result {
	pa, _ := preparePointer(a, nil)
	pb, _ := preparePointer(b, nil)
	return ba.pair(&pa, &pb, ba.nonEscapingLocal(&pa), ba.nonEscapingLocal(&pb))
}

// nonEscapingLocal reports whether p is rooted at an allocation of its
// own function that never escapes it. An allocation of another module
// was never seen to escape.
func (ba *Basic) nonEscapingLocal(p *Pointer) bool {
	if p.kind != objAlloca && p.kind != objMalloc {
		return false
	}
	slot := ba.vals.Slot(p.d.base)
	return slot < 0 || !ba.escaped[slot]
}

// pair is the basic-aa rule over two prepared pointers; aLocal and
// bLocal are their nonEscapingLocal bits.
func (ba *Basic) pair(a, b *Pointer, aLocal, bLocal bool) Result {
	if ba.Intraprocedural && a.fn != nil && b.fn != nil && a.fn != b.fn {
		return MayAlias
	}
	da, db := &a.d, &b.d
	// Same base pointer: compare offsets.
	if da.base == db.base {
		if len(da.varIdx) == 0 && len(db.varIdx) == 0 {
			// Both offsets constant: disjoint intervals cannot alias.
			if da.constOff == db.constOff && a.Loc.Size == b.Loc.Size {
				return MustAlias
			}
			if ba.UnknownSizes {
				return MayAlias
			}
			if da.constOff+a.Loc.Size <= db.constOff ||
				db.constOff+b.Loc.Size <= da.constOff {
				return NoAlias
			}
			return MayAlias
		}
		return MayAlias
	}
	return cross(a.kind, b.kind, aLocal, bLocal)
}

// cross is the rule for pointers with different bases, and so with
// different objects (see underlying): it reads only each pointer's
// object kind and nonEscapingLocal bit.
func cross(a, b objKind, aLocal, bLocal bool) Result {
	// Distinct identified objects never overlap.
	if identified(a) && identified(b) {
		return NoAlias
	}
	// A non-escaping local allocation cannot alias anything that
	// comes from outside the function: parameters, globals, loads.
	if aLocal && outside(b) {
		return NoAlias
	}
	if bLocal && outside(a) {
		return NoAlias
	}
	return MayAlias
}

func identified(k objKind) bool {
	return k == objAlloca || k == objMalloc || k == objGlobal
}

func outside(k objKind) bool {
	return k == objParam || k == objGlobal || k == objUnknown
}

// NewPrepared implements FuncPreparer: the escape bit of each pointer's
// object is looked up once per function.
func (ba *Basic) NewPrepared() Prepared { return &basicPrepared{ba: ba} }

type basicPrepared struct {
	ba    *Basic
	ptrs  []Pointer
	local []bool
}

func (p *basicPrepared) Prepare(_ *ir.Func, ptrs []Pointer) {
	p.ptrs, p.local = ptrs, p.local[:0]
	for i := range ptrs {
		p.local = append(p.local, p.ba.nonEscapingLocal(&ptrs[i]))
	}
}

func (p *basicPrepared) Pair(i, j int) Result {
	return p.ba.pair(&p.ptrs[i], &p.ptrs[j], p.local[i], p.local[j])
}

// Key is the object kind and the nonEscapingLocal bit. The pointers of
// one function all have its fn or none, so the Intraprocedural test
// never separates them.
func (p *basicPrepared) Key(i int) int {
	k := int(p.ptrs[i].kind) << 1
	if p.local[i] {
		k |= 1
	}
	return k
}

func (p *basicPrepared) Cross(i, j int) Result {
	return cross(p.ptrs[i].kind, p.ptrs[j].kind, p.local[i], p.local[j])
}

// Exceptions lists nothing: across bases every rule reads the keys.
func (p *basicPrepared) Exceptions(func(i, j int)) {}
