package ssa

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Eliminate converts f out of SSA form, the "SSA-Elimination phase"
// the paper mentions before code generation (Section 3.2): phi
// functions become loads from memory slots written by the
// predecessors, and sigma and copy instructions — the e-SSA parallel
// copies — are folded away by substituting their sources. Memory
// slots make the parallel-copy semantics trivially correct (the swap
// and lost-copy problems of register-based out-of-SSA translation
// cannot arise), at the cost of redundant memory traffic that
// Promote can immediately recover — the Eliminate/Promote round trip
// is differentially tested against the interpreter.
//
// Returns the number of phis eliminated.
func Eliminate(f *ir.Func) int {
	cfg.RemoveUnreachable(f)
	cfg.SplitCriticalEdges(f)

	// Fold sigmas and copies first: pure copies, so uses can take the
	// source directly. replacement is indexed by value id; only the
	// sigmas, copies and phis of f, which all predate it, get entries.
	replacement := make([]ir.Value, f.NumValues())
	var resolve func(v ir.Value) ir.Value
	resolve = func(v ir.Value) ir.Value {
		g, id := ir.ValueID(v)
		if g != f || id >= len(replacement) || replacement[id] == nil {
			return v
		}
		r := resolve(replacement[id])
		replacement[id] = r
		return r
	}
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op == ir.OpSigma || in.Op == ir.OpCopy {
				replacement[in.ID()] = in.Args[0]
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}

	// Phi elimination through memory slots.
	phis := 0
	entry := f.Entry()
	for _, b := range append([]*ir.Block(nil), f.Blocks...) {
		blockPhis := b.Phis()
		if len(blockPhis) == 0 {
			continue
		}
		for _, phi := range blockPhis {
			phis++
			slot := ir.NewAlloca(phi.Typ, 1)
			slot.SetName(f.FreshName(phi.Name() + ".slot"))
			entry.Insert(0, slot)
			// Store the incoming value at the end of each predecessor
			// (before its terminator).
			for i, pred := range phi.PhiBlocks() {
				val := resolve(phi.Args[i])
				st := &ir.Instr{
					Op:   ir.OpStore,
					Typ:  ir.Void,
					Args: []ir.Value{val, slot},
				}
				pred.Insert(len(pred.Instrs)-1, st)
			}
			// Replace the phi with a load at the block head.
			ld := &ir.Instr{
				Op:   ir.OpLoad,
				Typ:  phi.Typ,
				Args: []ir.Value{slot},
			}
			ld.SetName(f.FreshName(phi.Name() + ".reload"))
			replacement[phi.ID()] = ld
			// Swap in place: find the phi and substitute.
			for i, in := range b.Instrs {
				if in == phi {
					b.Attach(ld)
					b.Instrs[i] = ld
					break
				}
			}
		}
	}

	// Apply all substitutions.
	f.Instrs(func(in *ir.Instr) bool {
		for i, a := range in.Args {
			in.Args[i] = resolve(a)
		}
		return true
	})
	f.RecomputeCFG()
	return phis
}

// EliminateModule applies Eliminate to every function of m.
func EliminateModule(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += Eliminate(f)
	}
	return n
}
