// Pointer resolution for the sanitizer: tracing an access pointer
// back to its allocation through gep/sigma/copy chains, the nullness
// lattice, and the runtime-equality alias machinery (chains, groups,
// dominance validity) the layered prover quantifies over.
package sanitize

import (
	"math"

	"repro/internal/ir"
	"repro/internal/rangeanal"
)

// maxChainLen bounds the sigma/copy/gep chains walked during
// resolution; IR from the pipeline is shallow, and the bound keeps a
// hostile module from turning resolution quadratic.
const maxChainLen = 64

// maxSyms bounds the number of symbolic gep indices the interval sum
// tracks before resolution gives up.
const maxSyms = 4

// boundsPtr returns the pointer operand whose target the bounds and
// null checks are about.
func boundsPtr(in *ir.Instr) ir.Value {
	if in.Op == ir.OpStore {
		return in.Args[1]
	}
	return in.Args[0]
}

// resolved is the outcome of tracing an access pointer to its
// allocation: the object spans size cells, and the access offset is
// k plus the sum of the symbolic indices in syms. Offsets are in
// cells, matching the interpreter's object memory model (gep indices
// add to Val.Off without scaling).
type resolved struct {
	size int64
	syms []ir.Value
	k    int64
}

// resolveBase walks ptr through sigma/copy (runtime identity) and gep
// (offset accumulation) links to a statically sized allocation.
// Pointers whose base is a phi, parameter, load or call resolve to
// not-ok: without alias information their object is unknown.
func resolveBase(ptr ir.Value) (resolved, bool) {
	r := resolved{}
	for step := 0; step < maxChainLen; step++ {
		switch v := ptr.(type) {
		case *ir.Global:
			r.size = 1
			if at, ok := v.Elem.(*ir.ArrayType); ok {
				r.size = at.Len
			}
			return r, true
		case *ir.Instr:
			switch v.Op {
			case ir.OpAlloca:
				r.size = v.NumElems()
				return r, true
			case ir.OpMalloc:
				return resolveMalloc(v, r)
			case ir.OpGEP:
				if c, ok := v.Args[1].(*ir.Const); ok {
					k, ok := addExact(r.k, c.Val)
					if !ok {
						return r, false
					}
					r.k = k
				} else {
					if len(r.syms) >= maxSyms {
						return r, false
					}
					r.syms = append(r.syms, v.Args[1])
				}
				ptr = v.Args[0]
			case ir.OpSigma, ir.OpCopy:
				ptr = v.Args[0]
			default:
				return r, false
			}
		default:
			return r, false
		}
	}
	return r, false
}

// resolveMalloc sizes a constant-size malloc exactly as the
// interpreter does (interp.Machine, OpMalloc): cells = size / elem
// bytes, a zero-cell request still yields one cell, and unreasonable
// sizes trap at the malloc itself — so accesses through them are
// unreachable and resolution reports not-ok.
func resolveMalloc(in *ir.Instr, r resolved) (resolved, bool) {
	c, ok := in.Args[0].(*ir.Const)
	if !ok {
		return r, false
	}
	es := ir.Elem(in.Typ).SizeBytes()
	if es == 0 {
		es = 8
	}
	n := c.Val / es
	if c.Val < 0 || n > 1<<28 {
		return r, false
	}
	if n == 0 {
		n = 1
	}
	r.size = n
	return r, true
}

// addExact is int64 addition that reports overflow instead of
// wrapping; resolution bails out rather than reason with a wrapped
// offset.
func addExact(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// subExact mirrors addExact for subtraction.
func subExact(a, b int64) (int64, bool) {
	if b == math.MinInt64 {
		if a < 0 {
			return a - b, true
		}
		return 0, false
	}
	return addExact(a, -b)
}

// nullness lattice.
type nullState int

const (
	nullUnknown nullState = iota
	nullNonNull
	nullMustNull
	// nullPending marks an in-progress recursion (a phi cycle); a
	// query that meets it answers Unknown, the pessimistic and sound
	// join of whatever the cycle computes.
	nullPending
)

// nullness classifies v: provably a real object pointer, provably
// null (the interpreter's Val{} — which also covers integer zeros
// flowing into pointer positions), or unknown. Memoized per prover;
// loads and calls are Unknown without alias information.
func (p *prover) nullness(v ir.Value) nullState {
	if st, ok := p.null[v]; ok {
		if st == nullPending {
			return nullUnknown
		}
		return st
	}
	p.null[v] = nullPending
	st := p.nullnessOf(v)
	p.null[v] = st
	return st
}

func (p *prover) nullnessOf(v ir.Value) nullState {
	switch v := v.(type) {
	case *ir.Global:
		return nullNonNull
	case *ir.Const:
		// The C null idiom: constant 0 in a pointer position
		// evaluates to the interpreter's null value. Non-zero pointer
		// constants trap at evaluation, before the access; claiming
		// nothing about them is sound.
		if v.Val == 0 {
			return nullMustNull
		}
		return nullUnknown
	case *ir.Instr:
		switch v.Op {
		case ir.OpAlloca, ir.OpMalloc:
			return nullNonNull
		case ir.OpGEP:
			// gep preserves the object. A must-null base traps at the
			// gep itself, so the gep's RESULT never exists; its users
			// learn nothing (the gep instruction's own diagnostic
			// reports the trap).
			if p.nullness(v.Args[0]) == nullNonNull {
				return nullNonNull
			}
			return nullUnknown
		case ir.OpCopy:
			return p.nullness(v.Args[0])
		case ir.OpSigma:
			if st := sigmaNullFact(v); st != nullUnknown {
				return st
			}
			return p.nullness(v.Args[0])
		case ir.OpPhi:
			join := nullState(-1)
			for _, a := range v.Args {
				st := p.nullness(a)
				if join == -1 {
					join = st
				} else if join != st {
					return nullUnknown
				}
			}
			if join == nullNonNull || join == nullMustNull {
				return join
			}
			return nullUnknown
		}
	}
	return nullUnknown
}

// sigmaNullFact extracts the nullness a sigma's branch condition
// proves about its value: "p == 0" on the taken edge means must-null,
// "p != 0" means non-null. Other conditions prove nothing here.
func sigmaNullFact(in *ir.Instr) nullState {
	cmp := in.Cmp()
	pred := cmp.Pred
	if in.CmpSide == 1 {
		pred = pred.Swap()
	}
	if !in.OnTrue {
		pred = pred.Negate()
	}
	other := cmp.Args[1-in.CmpSide]
	c, ok := other.(*ir.Const)
	if !ok || c.Val != 0 {
		return nullUnknown
	}
	switch pred {
	case ir.CmpEQ:
		return nullMustNull
	case ir.CmpNE:
		return nullNonNull
	}
	return nullUnknown
}

// hasUndefOperand reports whether the instruction directly evaluates
// an undefined SSA value. This check is exact against the
// interpreter: operands reached through phis or earlier instructions
// are environment lookups of already-computed values (an undef there
// trapped earlier, at the phi or defining instruction), so an access
// traps with TrapUndef if and only if one of its own operands is
// syntactically undef.
func hasUndefOperand(in *ir.Instr) bool {
	for _, a := range in.Args {
		if _, ok := a.(*ir.Undef); ok {
			return true
		}
	}
	return false
}

// chain returns v and its sigma/copy sources, nearest first. All
// members hold the same runtime value, and each member's definition
// dominates v's uses — so every member is a valid stand-in for v at
// any point v is used.
func (p *prover) chain(v ir.Value) []ir.Value {
	out := []ir.Value{v}
	for len(out) < maxChainLen {
		in, ok := v.(*ir.Instr)
		if !ok || (in.Op != ir.OpSigma && in.Op != ir.OpCopy) {
			break
		}
		v = in.Args[0]
		out = append(out, v)
	}
	return out
}

// rootOf follows sigma/copy links to the underlying value; all values
// sharing a root are runtime-equal wherever defined.
func rootOf(v ir.Value) ir.Value {
	for step := 0; step < maxChainLen; step++ {
		in, ok := v.(*ir.Instr)
		if !ok || (in.Op != ir.OpSigma && in.Op != ir.OpCopy) {
			return v
		}
		v = in.Args[0]
	}
	return v
}

// group returns every int-typed value of the function sharing v's
// root — the full runtime-equality class, including sigma renamings
// on other branches. Unlike chain members, a group member is only a
// valid stand-in at a program point its definition dominates.
func (p *prover) group(v ir.Value) []ir.Value {
	if p.groups == nil {
		p.groups = map[ir.Value][]ir.Value{}
		for _, w := range p.candidates() {
			r := rootOf(w)
			p.groups[r] = append(p.groups[r], w)
		}
	}
	return p.groups[rootOf(v)]
}

// validAt reports whether w's definition dominates the program point
// of instruction at — the requirement for using a global fact about
// w (its interval, an LT-set membership) at that point.
func (p *prover) validAt(w ir.Value, at *ir.Instr) bool {
	switch w := w.(type) {
	case *ir.Param, *ir.Const:
		return true
	case *ir.Instr:
		if w.Blk == at.Blk {
			return p.pos(w) < p.pos(at)
		}
		return p.domtree().StrictlyDominates(w.Blk, at.Blk)
	}
	return false
}

// groupHi returns the tightest upper interval bound over the
// dominance-valid members of w's runtime-equality class: every valid
// member equals w at the access, so the minimum of their Hi bounds
// caps w there. PosInf when nothing caps it.
func (p *prover) groupHi(w ir.Value, at *ir.Instr) int64 {
	hi := int64(rangeanal.PosInf)
	for _, a := range p.group(w) {
		if h := p.ranges.Range(a).Hi; h < hi && p.validAt(a, at) {
			hi = h
		}
	}
	return hi
}

// groupLo mirrors groupHi for lower bounds; NegInf when uncapped.
func (p *prover) groupLo(w ir.Value, at *ir.Instr) int64 {
	lo := int64(rangeanal.NegInf)
	for _, a := range p.group(w) {
		if l := p.ranges.Range(a).Lo; l > lo && p.validAt(a, at) {
			lo = l
		}
	}
	return lo
}

// bestRange intersects the interval of v across its chain: chain
// members are runtime-equal and always defined at v's uses, so the
// intersection is a sound (and often tighter) range for v.
func (p *prover) bestRange(v ir.Value) rangeanal.Interval {
	iv := rangeanal.Top
	for _, a := range p.chain(v) {
		iv = rangeanal.Intersect(iv, p.ranges.Range(a))
	}
	return iv
}
