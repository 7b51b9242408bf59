// Package essa builds the extended SSA (e-SSA / SSI) program
// representation the paper's less-than analysis runs on. Following
// Figure 5 and the live-range-splitting strategy of Tavares et al.,
// the transformation splits the live range of a variable at every
// program point where new less-than information appears:
//
//   - after a conditional branch on a comparison, a sigma copy of each
//     compared variable is placed at the head of both branch targets
//     (Figure 5a);
//   - at a subtraction x1 = x2 - n with n provably positive (or an
//     addition of a provably negative value, or pointer arithmetic
//     with such an offset), a parallel copy of x2 is inserted right
//     after the instruction (Figure 5b).
//
// Uses dominated by a split point are renamed to the split's fresh
// name, which gives every dataflow fact a single program point of
// birth — the Static Single Information property that makes the
// analysis sparse.
package essa

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// RangeOracle supplies variable sign information for classifying
// additions with non-constant operands, per the "support of range
// analysis" paragraph of Section 3.2. internal/rangeanal implements
// it; a nil oracle classifies only constant operands.
type RangeOracle interface {
	// IsStrictlyPositive reports whether v > 0 always holds.
	IsStrictlyPositive(v ir.Value) bool
	// IsStrictlyNegative reports whether v < 0 always holds.
	IsStrictlyNegative(v ir.Value) bool
}

// Transform converts f into e-SSA: InsertSigmas followed by
// SplitSubtractions. The result remains valid strict SSA.
func Transform(f *ir.Func, oracle RangeOracle) {
	InsertSigmas(f)
	SplitSubtractions(f, oracle)
}

// TransformModule applies Transform to every function in m.
func TransformModule(m *ir.Module, oracle RangeOracle) {
	for _, f := range m.Funcs {
		Transform(f, oracle)
	}
}

// InsertSigmas splits critical edges and places sigma copies of every
// compared variable at the head of both targets of each conditional
// branch whose condition is a comparison. Returns the number of
// sigmas inserted.
func InsertSigmas(f *ir.Func) int {
	cfg.RemoveUnreachable(f)
	cfg.SplitCriticalEdges(f)
	roots := make(map[*ir.Instr]ir.Value)
	count := 0
	for _, b := range append([]*ir.Block(nil), f.Blocks...) {
		term := b.Term()
		if term == nil || term.Op != ir.OpBr {
			continue
		}
		cmp, ok := term.Args[0].(*ir.Instr)
		if !ok || cmp.Op != ir.OpICmp {
			continue
		}
		tSucc, fSucc := term.Succs[0], term.Succs[1]
		if tSucc == fSucc {
			continue
		}
		for side := 0; side < 2; side++ {
			x := cmp.Args[side]
			if !splittable(x) {
				continue
			}
			if side == 1 && x == cmp.Args[0] {
				continue // x < x: one sigma per variable
			}
			for _, arm := range []struct {
				blk    *ir.Block
				onTrue bool
			}{{tSucc, true}, {fSucc, false}} {
				sig := &ir.Instr{
					Op:      ir.OpSigma,
					Typ:     x.Type(),
					Args:    []ir.Value{x},
					Cmp:     cmp,
					OnTrue:  arm.onTrue,
					CmpSide: side,
				}
				sig.SetName(f.FreshName(x.Name() + ".s"))
				arm.blk.Insert(arm.blk.NumPhis()+countSigmas(arm.blk), sig)
				roots[sig] = x
				count++
			}
		}
	}
	if count > 0 {
		renameSplits(f, roots)
	}
	return count
}

func countSigmas(b *ir.Block) int {
	n := 0
	for _, in := range b.Instrs {
		if in.Op == ir.OpSigma {
			n++
		} else if in.Op != ir.OpPhi {
			break
		}
	}
	return n
}

func splittable(v ir.Value) bool {
	switch v.(type) {
	case *ir.Instr, *ir.Param:
		return true
	}
	return false
}

// SplitSubtractions inserts, after every instruction that subtracts a
// provably positive amount from a variable (sub with positive n, add
// with negative n, gep with negative index), a parallel copy of the
// reduced variable, and renames dominated uses. Returns the number of
// copies inserted.
func SplitSubtractions(f *ir.Func, oracle RangeOracle) int {
	roots := make(map[*ir.Instr]ir.Value)
	count := 0
	for _, b := range f.Blocks {
		// The block is rebuilt in one pass once it gets its first copy;
		// inserting each copy in place would shift the rest of the
		// block every time.
		var out []*ir.Instr
		for i, in := range b.Instrs {
			x := reducedOperand(in, oracle)
			if x == nil || !splittable(x) {
				if out != nil {
					out = append(out, in)
				}
				continue
			}
			if out == nil {
				out = append(make([]*ir.Instr, 0, len(b.Instrs)+1), b.Instrs[:i]...)
			}
			cp := &ir.Instr{
				Op:      ir.OpCopy,
				Typ:     x.Type(),
				Args:    []ir.Value{x},
				SubUser: in,
				Blk:     b,
			}
			cp.SetName(f.FreshName(x.Name() + ".c"))
			out = append(out, in, cp)
			roots[cp] = x
			count++
		}
		if out != nil {
			b.Instrs = out
		}
	}
	if count > 0 {
		renameSplits(f, roots)
	}
	return count
}

// reducedOperand returns the variable that instruction in strictly
// decreases, or nil. This is the x2 of Figure 5(b): the result in is
// known to be strictly less than x2.
func reducedOperand(in *ir.Instr, oracle RangeOracle) ir.Value {
	pos := func(v ir.Value) bool {
		if c, ok := v.(*ir.Const); ok {
			return c.Val > 0
		}
		return oracle != nil && oracle.IsStrictlyPositive(v)
	}
	neg := func(v ir.Value) bool {
		if c, ok := v.(*ir.Const); ok {
			return c.Val < 0
		}
		return oracle != nil && oracle.IsStrictlyNegative(v)
	}
	switch in.Op {
	case ir.OpSub:
		if pos(in.Args[1]) {
			return in.Args[0]
		}
	case ir.OpAdd:
		if neg(in.Args[1]) {
			return in.Args[0]
		}
		if neg(in.Args[0]) {
			return in.Args[1]
		}
	case ir.OpGEP:
		if neg(in.Args[1]) {
			return in.Args[0]
		}
	}
	return nil
}

// renameSplits renames, for every split instruction s with original
// variable root[s], all uses of root[s] dominated by s to s itself.
// Sigma operands are wired from the unique predecessor (the edge the
// sigma sits on), mirroring phi semantics.
func renameSplits(f *ir.Func, roots map[*ir.Instr]ir.Value) {
	f.RecomputeCFG()
	dt := cfg.NewDomTree(f)
	stacks := make(map[ir.Value][]ir.Value)
	lookup := func(v ir.Value) ir.Value {
		if s := stacks[v]; len(s) > 0 {
			return s[len(s)-1]
		}
		return v
	}
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		type pushRec struct{ root ir.Value }
		var pushed []pushRec
		push := func(root ir.Value, def ir.Value) {
			stacks[root] = append(stacks[root], def)
			pushed = append(pushed, pushRec{root})
		}
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpPhi:
				// Incoming values are renamed from predecessors.
			case in.Op == ir.OpSigma:
				// Sigma operands carry edge semantics and were wired
				// by the predecessor's visit; never rename them here.
				// A split sigma becomes the current definition.
				if roots[in] != nil {
					push(roots[in], in)
				}
			default:
				for i, a := range in.Args {
					if n := lookup(a); n != a {
						in.Args[i] = n
					}
				}
				if in.Op == ir.OpCopy && roots[in] != nil {
					push(roots[in], in)
				}
			}
		}
		for _, s := range b.Succs() {
			for _, in := range s.Instrs {
				switch in.Op {
				case ir.OpPhi:
					for i, pb := range in.PhiBlocks {
						if pb == b {
							if n := lookup(in.Args[i]); n != in.Args[i] {
								in.Args[i] = n
							}
						}
					}
				case ir.OpSigma:
					// A sigma block has a unique predecessor, so this
					// write happens exactly once.
					if r := roots[in]; r != nil {
						in.Args[0] = lookup(r)
					} else if n := lookup(in.Args[0]); n != in.Args[0] {
						in.Args[0] = n
					}
				default:
					// Past the phi/sigma prefix.
				}
				if in.Op != ir.OpPhi && in.Op != ir.OpSigma {
					break
				}
			}
		}
		for _, c := range dt.Children(b) {
			visit(c)
		}
		for i := len(pushed) - 1; i >= 0; i-- {
			r := pushed[i].root
			stacks[r] = stacks[r][:len(stacks[r])-1]
		}
	}
	if f.Entry() != nil {
		visit(f.Entry())
	}
}
