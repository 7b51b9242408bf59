// Package ssa implements SSA construction: the promotion of scalar
// stack slots (allocas) to SSA registers, in the style of LLVM's
// mem2reg pass (Cytron et al.). Phis are placed on the iterated
// dominance frontier of each alloca's stores, values are renamed along
// the dominator tree, and phis that nothing but other dead phis uses
// are deleted afterwards. The mini-C frontend emits every local
// variable as an alloca; Promote turns the resulting load/store soup
// into the strict SSA form the paper's analyses require.
package ssa

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/csr"
	"repro/internal/ir"
)

// Promote rewrites every promotable alloca in f into SSA values and
// removes the alloca together with its loads and stores. An alloca is
// promotable when it allocates a single scalar (integer or pointer)
// element and its address is used only as the pointer operand of loads
// and stores. Returns the number of allocas promoted.
//
// The work is linear in the size of f plus the phis placed: allocas
// are numbered once, their defining blocks are collected in one pass,
// and the placement and renaming state lives in slices indexed by
// alloca and block number.
func Promote(f *ir.Func) int {
	cfg.RemoveUnreachable(f)
	pr := newPromoter(f)
	if pr == nil {
		return 0
	}
	dt := cfg.NewDomTree(f)
	pr.placePhis(cfg.DominanceFrontier(f, dt))
	pr.rename(dt, f.Entry())
	pr.patch()
	removeDeadPhis(f)
	f.RecomputeCFG()
	return len(pr.allocas)
}

// promoter holds the dense state of one Promote call. Allocas are
// numbered 0..len(allocas)-1 in instruction order; blocks by Index.
type promoter struct {
	f       *ir.Func
	allocas []*ir.Instr
	id      map[*ir.Instr]int32
	// loads counts the loads from candidate allocas, a bound on the
	// loads renaming drops.
	loads int

	// placed lists the phis placed in each block, in placement order,
	// which is ascending alloca order: block b's are
	// placed[placedOff[b]:placedOff[b+1]].
	placed    []placedPhi
	placedOff []int32

	// stacks[a] is alloca a's definition stack during renaming; log
	// records the alloca of every push so a block's pushes are undone
	// when the walk leaves it.
	stacks [][]ir.Value
	log    []int32
	// replacement maps each dropped load to the value it read.
	replacement map[*ir.Instr]ir.Value
}

type placedPhi struct {
	phi *ir.Instr
	a   int32
}

// newPromoter numbers the promotable allocas of f, or returns nil when
// there are none.
func newPromoter(f *ir.Func) *promoter {
	var cands []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && in.NumElems == 1 && scalar(in.AllocTyp) {
				cands = append(cands, in)
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	pr := &promoter{f: f, id: make(map[*ir.Instr]int32, len(cands))}
	for i, a := range cands {
		pr.id[a] = int32(i)
	}
	// An alloca whose address is used other than as the pointer of a
	// load or store escapes.
	bad := make([]bool, len(cands))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, arg := range in.Args {
				a := pr.allocaOf(arg)
				switch {
				case a < 0:
				case in.Op == ir.OpLoad && i == 0:
					pr.loads++
				case in.Op == ir.OpStore && i == 1:
				default:
					bad[a] = true
				}
			}
		}
	}
	for i, a := range cands {
		if bad[i] {
			delete(pr.id, a)
			continue
		}
		pr.id[a] = int32(len(pr.allocas))
		pr.allocas = append(pr.allocas, a)
	}
	if len(pr.allocas) == 0 {
		return nil
	}
	return pr
}

// allocaOf returns the number of the promoted alloca v is, or -1.
func (pr *promoter) allocaOf(v ir.Value) int32 {
	in, ok := v.(*ir.Instr)
	if !ok || in.Op != ir.OpAlloca {
		return -1
	}
	if a, ok := pr.id[in]; ok {
		return a
	}
	return -1
}

// placePhis places a phi for each alloca at the iterated dominance
// frontier of its defining blocks, alloca by alloca, and splices each
// block's phis in ahead of its instructions, latest placed first.
func (pr *promoter) placePhis(df [][]*ir.Block) {
	f := pr.f
	nb := len(f.Blocks)

	// The defining blocks of every alloca, in block order.
	var pairs []csr.Pair[int32]
	last := make([]int32, len(pr.allocas))
	for bi, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpStore {
				continue
			}
			if a := pr.allocaOf(in.Args[1]); a >= 0 && last[a] != int32(bi)+1 {
				last[a] = int32(bi) + 1
				pairs = append(pairs, csr.Pair[int32]{Key: a, Val: int32(bi)})
			}
		}
	}
	defOff, defs := csr.Group(len(pr.allocas), pairs)

	// Worklist placement; stamps are alloca number + 1.
	inWork := make([]int32, nb)
	placedAt := make([]int32, nb)
	var work []int32
	var placed []csr.Pair[placedPhi]
	for ai, a := range pr.allocas {
		stamp := int32(ai) + 1
		prefix := ""
		work = work[:0]
		for _, bi := range defs[defOff[ai]:defOff[ai+1]] {
			inWork[bi] = stamp
			work = append(work, bi)
		}
		for len(work) > 0 {
			bi := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fb := range df[bi] {
				if placedAt[fb.Index] == stamp {
					continue
				}
				placedAt[fb.Index] = stamp
				if prefix == "" {
					prefix = a.Name() + "."
				}
				phi := &ir.Instr{Op: ir.OpPhi, Typ: a.AllocTyp}
				phi.SetName(f.FreshName(prefix))
				placed = append(placed, csr.Pair[placedPhi]{Key: int32(fb.Index), Val: placedPhi{phi, int32(ai)}})
				// A phi is a new definition; propagate.
				if inWork[fb.Index] != stamp {
					inWork[fb.Index] = stamp
					work = append(work, int32(fb.Index))
				}
			}
		}
	}

	// Group the placed phis by block, keeping placement order.
	pr.placedOff, pr.placed = csr.Group(nb, placed)

	for bi, b := range f.Blocks {
		ps := pr.placed[pr.placedOff[bi]:pr.placedOff[bi+1]]
		if len(ps) == 0 {
			continue
		}
		instrs := make([]*ir.Instr, 0, len(ps)+len(b.Instrs))
		for i := len(ps) - 1; i >= 0; i-- {
			ps[i].phi.Blk = b
			instrs = append(instrs, ps[i].phi)
		}
		b.Instrs = append(instrs, b.Instrs...)
	}
}

// phisOf returns the phis placed in block b, in placement order.
func (pr *promoter) phisOf(b *ir.Block) []placedPhi {
	return pr.placed[pr.placedOff[b.Index]:pr.placedOff[b.Index+1]]
}

func (pr *promoter) push(a int32, v ir.Value) {
	pr.stacks[a] = append(pr.stacks[a], v)
	pr.log = append(pr.log, a)
}

// top returns alloca a's current definition. A read before any store
// yields a fresh undef.
func (pr *promoter) top(a int32) ir.Value {
	s := pr.stacks[a]
	if len(s) == 0 {
		return &ir.Undef{Typ: pr.allocas[a].AllocTyp}
	}
	return s[len(s)-1]
}

// rename walks the dominator tree from entry. Loads are not patched
// eagerly (that would be quadratic); each dropped load's value is
// recorded and patch applies them all in one pass afterwards.
func (pr *promoter) rename(dt *cfg.DomTree, entry *ir.Block) {
	pr.stacks = make([][]ir.Value, len(pr.allocas))
	pr.replacement = make(map[*ir.Instr]ir.Value, pr.loads)
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		mark := len(pr.log)
		// The placed phis head the block, latest placed first; each
		// defines its alloca.
		ps := pr.phisOf(b)
		for i := len(ps) - 1; i >= 0; i-- {
			pr.push(ps[i].a, ps[i].phi)
		}
		kept := b.Instrs[:len(ps)]
		for _, in := range b.Instrs[len(ps):] {
			switch {
			case in.Op == ir.OpLoad:
				if a := pr.allocaOf(in.Args[0]); a >= 0 {
					pr.replacement[in] = pr.top(a)
					continue // drop the load
				}
			case in.Op == ir.OpStore:
				if a := pr.allocaOf(in.Args[1]); a >= 0 {
					pr.push(a, in.Args[0])
					continue // drop the store
				}
			case in.Op == ir.OpAlloca:
				if pr.allocaOf(in) >= 0 {
					continue // drop the alloca itself
				}
			}
			kept = append(kept, in)
		}
		clear(b.Instrs[len(kept):])
		b.Instrs = kept
		// Fill phi operands in successors.
		for _, s := range b.Succs() {
			for _, p := range pr.phisOf(s) {
				ir.AddIncoming(p.phi, pr.top(p.a), b)
			}
		}
		for _, c := range dt.Children(b) {
			walk(c)
		}
		for _, a := range pr.log[mark:] {
			pr.stacks[a] = pr.stacks[a][:len(pr.stacks[a])-1]
		}
		pr.log = pr.log[:mark]
	}
	walk(entry)
}

// patch replaces every operand that is a dropped load by the value the
// load read.
func (pr *promoter) patch() {
	for _, b := range pr.f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				in.Args[i] = pr.resolve(a)
			}
		}
	}
}

// resolve returns the value v stands for. A dropped load may have read
// another dropped load (a store of a loaded value), so it follows the
// chain to its end and points every link there.
func (pr *promoter) resolve(v ir.Value) ir.Value {
	end := v
	for {
		in, ok := end.(*ir.Instr)
		if !ok || in.Op != ir.OpLoad {
			break
		}
		r, ok := pr.replacement[in]
		if !ok {
			break
		}
		end = r
	}
	for v != end {
		in := v.(*ir.Instr)
		v, pr.replacement[in] = pr.replacement[in], end
	}
	return end
}

// removeDeadPhis deletes phis whose results are used by nothing but
// other dead phis. Unpruned phi placement leaves such phis behind
// (e.g. a loop-header phi for a variable that is always reassigned
// before use); they would otherwise feed undef into interpreters and
// pollute analysis statistics.
func removeDeadPhis(f *ir.Func) {
	// Mark phis reachable from non-phi uses.
	live := make(map[*ir.Instr]bool)
	var stack []*ir.Instr
	mark := func(v ir.Value) {
		if phi, ok := v.(*ir.Instr); ok && phi.Op == ir.OpPhi && !live[phi] {
			live[phi] = true
			stack = append(stack, phi)
		}
	}
	hasPhis := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				hasPhis = true
				continue
			}
			for _, a := range in.Args {
				mark(a)
			}
		}
	}
	if !hasPhis {
		return
	}
	for len(stack) > 0 {
		phi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range phi.Args {
			mark(a)
		}
	}
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && !live[in] {
				continue
			}
			kept = append(kept, in)
		}
		clear(b.Instrs[len(kept):])
		b.Instrs = kept
	}
}

func scalar(t ir.Type) bool { return ir.IsInt(t) || ir.IsPtr(t) }

// VerifySSA checks the dominance property of strict SSA form: every
// use of a value is dominated by its definition. Phi uses are checked
// at the end of the corresponding incoming block. It complements the
// structural ir.Verify.
func VerifySSA(f *ir.Func) error {
	f.RecomputeCFG()
	dt := cfg.NewDomTree(f)
	pos := make(map[*ir.Instr]int32, f.NumInstrs())
	i := int32(0)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			pos[in] = i
			i++
		}
	}
	check := func(user *ir.Instr, v ir.Value, atEndOf *ir.Block) error {
		def, ok := v.(*ir.Instr)
		if !ok {
			return nil // params, consts, globals, undef always dominate
		}
		if def.Blk == nil {
			return fmt.Errorf("use of detached instruction %s", def.Ref())
		}
		if atEndOf != nil {
			if !dt.Dominates(def.Blk, atEndOf) {
				return fmt.Errorf("phi use of %s not dominated (edge from %s)",
					def.Ref(), atEndOf.Name())
			}
			return nil
		}
		if def.Blk == user.Blk {
			if pos[def] >= pos[user] {
				return fmt.Errorf("%s used before defined in block %s",
					def.Ref(), user.Blk.Name())
			}
			return nil
		}
		if !dt.StrictlyDominates(def.Blk, user.Blk) {
			return fmt.Errorf("def of %s in %s does not dominate use in %s",
				def.Ref(), def.Blk.Name(), user.Blk.Name())
		}
		return nil
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !dt.Reachable(in.Blk) {
				continue
			}
			if in.Op == ir.OpPhi {
				for i, a := range in.Args {
					if err := check(in, a, in.PhiBlocks[i]); err != nil {
						return err
					}
				}
				continue
			}
			for _, a := range in.Args {
				if err := check(in, a, nil); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
