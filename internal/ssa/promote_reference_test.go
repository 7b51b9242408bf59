package ssa

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// ReferencePromote is Promote as it was before it moved to dense
// per-alloca state: the differential oracle of TestDifferentialPromote.
// It rewrites every promotable alloca in f into SSA values and
// removes the alloca together with its loads and stores. An alloca is
// promotable when it allocates a single scalar (integer or pointer)
// element and its address is used only as the pointer operand of loads
// and stores. Returns the number of allocas promoted.
func ReferencePromote(f *ir.Func) int {
	cfg.RemoveUnreachable(f)
	allocas := refPromotable(f)
	if len(allocas) == 0 {
		return 0
	}
	dt := cfg.NewDomTree(f)
	df := cfg.DominanceFrontier(f, dt)

	// Phase 1: place phis at the iterated dominance frontier of each
	// alloca's defining (storing) blocks.
	phiFor := make(map[*ir.Instr]map[*ir.Block]*ir.Instr) // alloca -> block -> phi
	for _, a := range allocas {
		phiFor[a] = make(map[*ir.Block]*ir.Instr)
		var work []*ir.Block
		inWork := make(map[*ir.Block]bool)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpStore && in.Args[1] == ir.Value(a) {
					if !inWork[b] {
						inWork[b] = true
						work = append(work, b)
					}
				}
			}
		}
		placed := make(map[*ir.Block]bool)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fb := range df[b.Index] {
				if placed[fb] {
					continue
				}
				placed[fb] = true
				phi := &ir.Instr{
					Op:  ir.OpPhi,
					Typ: a.AllocTyp,
				}
				phi.SetName(f.FreshName(a.Name() + "."))
				fb.Insert(0, phi)
				phiFor[a][fb] = phi
				// A phi is a new definition; propagate.
				if !inWork[fb] {
					inWork[fb] = true
					work = append(work, fb)
				}
			}
		}
	}

	// Phase 2: rename along the dominator tree. Loads are not patched
	// eagerly (that would be quadratic); instead a replacement map is
	// collected and applied in one pass afterwards.
	stacks := make(map[*ir.Instr][]ir.Value) // alloca -> def stack
	replacement := make(map[ir.Value]ir.Value)
	isAlloca := make(map[ir.Value]*ir.Instr)
	for _, a := range allocas {
		isAlloca[a] = a
	}
	var rename func(b *ir.Block)
	rename = func(b *ir.Block) {
		pushed := make(map[*ir.Instr]int)
		push := func(a *ir.Instr, v ir.Value) {
			stacks[a] = append(stacks[a], v)
			pushed[a]++
		}
		top := func(a *ir.Instr) ir.Value {
			s := stacks[a]
			if len(s) == 0 {
				return &ir.Undef{Typ: a.AllocTyp}
			}
			return s[len(s)-1]
		}
		var kept []*ir.Instr
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpPhi:
				// A placed phi defines its alloca.
				for _, a := range allocas {
					if phiFor[a][b] == in {
						push(a, in)
					}
				}
				kept = append(kept, in)
			case in.Op == ir.OpLoad && isAlloca[in.Args[0]] != nil:
				a := isAlloca[in.Args[0]]
				replacement[in] = top(a)
				// drop the load
			case in.Op == ir.OpStore && isAlloca[in.Args[1]] != nil:
				a := isAlloca[in.Args[1]]
				push(a, in.Args[0])
				// drop the store
			case isAlloca[ir.Value(in)] != nil:
				// drop the alloca itself
			default:
				kept = append(kept, in)
			}
		}
		b.Instrs = kept
		// Fill phi operands in successors.
		for _, s := range b.Succs() {
			for _, a := range allocas {
				if phi := phiFor[a][s]; phi != nil {
					ir.AddIncoming(phi, top(a), b)
				}
			}
		}
		for _, c := range dt.Children(b) {
			rename(c)
		}
		for a, n := range pushed {
			stacks[a] = stacks[a][:len(stacks[a])-n]
		}
	}
	rename(f.Entry())

	// Resolve replacement chains (a dropped load may have been pushed
	// as the current definition before it was itself replaced) and
	// patch every operand in one pass.
	var resolve func(v ir.Value) ir.Value
	resolve = func(v ir.Value) ir.Value {
		r, ok := replacement[v]
		if !ok {
			return v
		}
		r = resolve(r)
		replacement[v] = r // path compression
		return r
	}
	f.Instrs(func(in *ir.Instr) bool {
		for i, a := range in.Args {
			in.Args[i] = resolve(a)
		}
		return true
	})

	refRemoveDeadPhis(f)
	f.RecomputeCFG()
	return len(allocas)
}

// refRemoveDeadPhis deletes phis whose results are used by nothing but
// other dead phis. Unpruned phi placement leaves such phis behind
// (e.g. a loop-header phi for a variable that is always reassigned
// before use); they would otherwise feed undef into interpreters and
// pollute analysis statistics.
func refRemoveDeadPhis(f *ir.Func) {
	// Mark phis reachable from non-phi uses.
	live := make(map[*ir.Instr]bool)
	var mark func(v ir.Value)
	mark = func(v ir.Value) {
		phi, ok := v.(*ir.Instr)
		if !ok || phi.Op != ir.OpPhi || live[phi] {
			return
		}
		live[phi] = true
		for _, a := range phi.Args {
			mark(a)
		}
	}
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpPhi {
			return true
		}
		for _, a := range in.Args {
			mark(a)
		}
		return true
	})
	for _, b := range f.Blocks {
		var kept []*ir.Instr
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && !live[in] {
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
}

// refPromotable returns the allocas of f that can be rewritten to SSA.
func refPromotable(f *ir.Func) []*ir.Instr {
	var cands []*ir.Instr
	bad := make(map[*ir.Instr]bool)
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpAlloca && in.NumElems == 1 && refScalar(in.AllocTyp) {
			cands = append(cands, in)
		}
		return true
	})
	if len(cands) == 0 {
		return nil
	}
	set := make(map[ir.Value]*ir.Instr, len(cands))
	for _, a := range cands {
		set[a] = a
	}
	f.Instrs(func(in *ir.Instr) bool {
		for i, arg := range in.Args {
			a := set[arg]
			if a == nil {
				continue
			}
			ok := (in.Op == ir.OpLoad && i == 0) ||
				(in.Op == ir.OpStore && i == 1)
			if !ok {
				bad[a] = true
			}
		}
		return true
	})
	var out []*ir.Instr
	for _, a := range cands {
		if !bad[a] {
			out = append(out, a)
		}
	}
	return out
}

func refScalar(t ir.Type) bool { return ir.IsInt(t) || ir.IsPtr(t) }
