package opt

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// FoldConstants performs constant folding and algebraic
// simplification on f: arithmetic and comparisons over constant
// operands evaluate at compile time, identities (x+0, x*1, x*0,
// x-x, x^x) simplify, branches on constant conditions become jumps
// (with unreachable code removed), and single-incoming phis fold to
// their operand. The pass iterates to a fixed point and returns the
// number of instructions eliminated.
//
// Canonicalizing before the analysis pipeline helps the less-than
// analysis the same way instcombine helps LLVM's: fewer names, more
// constant operands for rule 2.
func FoldConstants(f *ir.Func) int {
	removed := 0
	for {
		n := foldOnce(f)
		if n == 0 {
			return removed
		}
		removed += n
	}
}

func foldOnce(f *ir.Func) int {
	replacement := map[ir.Value]ir.Value{}
	res := func(v ir.Value) ir.Value {
		for {
			r, ok := replacement[v]
			if !ok {
				return v
			}
			v = r
		}
	}
	removed := 0

	// Fold value-producing instructions.
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				in.Args[i] = res(a)
			}
			if v := simplify(in); v != nil {
				replacement[in] = v
				removed++
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	// Constant branches become jumps.
	for _, b := range f.Blocks {
		term := b.Term()
		if term == nil || term.Op != ir.OpBr {
			continue
		}
		cond := res(term.Args[0])
		c, ok := cond.(*ir.Const)
		if !ok {
			continue
		}
		target := term.Succs[1]
		if c.Val != 0 {
			target = term.Succs[0]
		}
		dropped := term.Succs[0]
		if target == term.Succs[0] {
			dropped = term.Succs[1]
		}
		term.Op = ir.OpJmp
		term.Args = nil
		term.Succs = []*ir.Block{target}
		removed++
		// The dropped edge's phi entries must go.
		removePhiEdge(dropped, b)
	}
	// Apply replacements everywhere (phis included).
	f.Instrs(func(in *ir.Instr) bool {
		for i, a := range in.Args {
			in.Args[i] = res(a)
		}
		return true
	})
	// Unreachable blocks may have appeared; single-entry phis fold.
	removed += cfg.RemoveUnreachable(f)
	for _, b := range f.Blocks {
		var kept []*ir.Instr
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && len(in.Args) == 1 {
				replacement[in] = in.Args[0]
				removed++
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	f.Instrs(func(in *ir.Instr) bool {
		for i, a := range in.Args {
			in.Args[i] = res(a)
		}
		return true
	})
	return removed
}

// removePhiEdge deletes pred's incoming entries from every phi in b.
func removePhiEdge(b *ir.Block, pred *ir.Block) {
	for _, phi := range b.Instrs[:b.NumPhis()] {
		phi.RetainIncoming(func(pb *ir.Block) bool { return pb != pred })
	}
}

// simplify returns the value in reduces to, or nil.
func simplify(in *ir.Instr) ir.Value {
	constOf := func(v ir.Value) (int64, bool) {
		c, ok := v.(*ir.Const)
		if !ok {
			return 0, false
		}
		return c.Val, true
	}
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
		a, aOK := constOf(in.Args[0])
		b, bOK := constOf(in.Args[1])
		if aOK && bOK {
			if v, ok := evalBin(in.Op, a, b); ok {
				return &ir.Const{Val: v, Typ: in.Typ}
			}
			return nil
		}
		// Algebraic identities.
		switch in.Op {
		case ir.OpAdd:
			if aOK && a == 0 {
				return in.Args[1]
			}
			if bOK && b == 0 {
				return in.Args[0]
			}
		case ir.OpSub:
			if bOK && b == 0 {
				return in.Args[0]
			}
			if in.Args[0] == in.Args[1] {
				return &ir.Const{Val: 0, Typ: in.Typ}
			}
		case ir.OpMul:
			if aOK && a == 1 {
				return in.Args[1]
			}
			if bOK && b == 1 {
				return in.Args[0]
			}
			if (aOK && a == 0) || (bOK && b == 0) {
				return &ir.Const{Val: 0, Typ: in.Typ}
			}
		case ir.OpXor:
			if in.Args[0] == in.Args[1] {
				return &ir.Const{Val: 0, Typ: in.Typ}
			}
		case ir.OpAnd, ir.OpOr:
			if in.Args[0] == in.Args[1] {
				return in.Args[0]
			}
		}
	case ir.OpICmp:
		a, aOK := constOf(in.Args[0])
		b, bOK := constOf(in.Args[1])
		if aOK && bOK {
			if in.Pred.Eval(a, b) {
				return ir.ConstBool(true)
			}
			return ir.ConstBool(false)
		}
		if in.Args[0] == in.Args[1] {
			switch in.Pred {
			case ir.CmpEQ, ir.CmpLE, ir.CmpGE:
				return ir.ConstBool(true)
			case ir.CmpNE, ir.CmpLT, ir.CmpGT:
				return ir.ConstBool(false)
			}
		}
	case ir.OpGEP:
		if c, ok := constOf(in.Args[1]); ok && c == 0 &&
			ir.Equal(in.Typ, in.Args[0].Type()) {
			return in.Args[0]
		}
	}
	return nil
}

// evalBin evaluates a binary operation on constants, refusing the
// cases whose runtime behaviour is a trap (division by zero, shift
// out of range) so the fold never changes observable faults.
func evalBin(op ir.Op, a, b int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case ir.OpRem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		if b < 0 || b > 63 {
			return 0, false
		}
		return a << uint(b), true
	case ir.OpShr:
		if b < 0 || b > 63 {
			return 0, false
		}
		return a >> uint(b), true
	}
	return 0, false
}
