// Package ssa builds the strict SSA form the paper's analyses require,
// in the style of LLVM's mem2reg pass (Cytron et al.): every scalar
// local becomes SSA values, phis are placed on the iterated dominance
// frontier of each local's definitions, values are renamed along the
// dominator tree, and phis that nothing but other dead phis uses are
// deleted afterwards.
//
// One construction serves two inputs. The mini-C frontend builds most
// locals in SSA form as it lowers, with no alloca, load or store, and
// records them in a Locals; it lowers to memory only the locals whose
// address some "&" may take, and Locals.Finish promotes those of them
// that do not escape after all. Promote runs the same construction
// over a function with no recorded locals: it rewrites whatever
// promotable allocas the function holds.
package ssa

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/cfg"
	"repro/internal/csr"
	"repro/internal/ir"
)

// Promote rewrites every promotable alloca in f into SSA values and
// removes the alloca together with its loads and stores. An alloca is
// promotable when it allocates a single scalar (integer or pointer)
// element, its address is used only as the pointer operand of loads
// and stores, and the frontend did not keep it in memory
// (ir.Instr.Kept). Returns the number of allocas promoted. On the
// frontend's output, where lowering promoted every such alloca
// already and marked the others kept, it only scans.
//
// The work is linear in the size of f plus the phis placed: allocas
// are numbered once, their defining blocks are collected in one pass,
// and the placement and renaming state lives in slices indexed by
// alloca and block number.
//
// Promote ends by renumbering f's value ids (Func.RenumberValues): the
// ids of what is left are dense again, and every id-indexed table of f
// is stale.
func Promote(f *ir.Func) int {
	n, _ := new(promoter).construct(f, nil)
	return n
}

// promoter holds the state of one construction in slices indexed by
// variable and block number, which the next construction by the same
// promoter reuses. Variables, the promoted allocas and the recorded
// locals, are numbered 0..len(vars)-1 in the order their allocas stand
// in the function; blocks by Index.
type promoter struct {
	f    *ir.Func
	vars []variable
	// id numbers the promoted allocas, and allocas counts them.
	id      map[*ir.Instr]int32
	allocas int
	// varOf numbers the recorded locals. When grouped, events holds
	// their events in live blocks, in program order, grouped by block:
	// block b's are events[eventOff[b]:eventOff[b+1]]. pending counts
	// the reads among them.
	varOf    []int32
	grouped  bool
	events   []event
	eventOff []int32
	pending  int

	// placed lists the phis placed in each block, in placement order,
	// which is ascending variable order: block b's are
	// placed[placedOff[b]:placedOff[b+1]].
	placed    []placedPhi
	placedOff []int32

	// cur[v] is variable v's current definition during renaming, nil
	// before the first; log records what every definition replaced, so
	// a block's definitions are undone when the walk leaves it.
	cur []ir.Value
	log []undo

	// Buffers kept for reuse.
	cands     []*ir.Instr
	bad       []bool
	localBuf  []csr.Pair[int32]
	locals    []int32
	localOff  []int32
	defBuf    []csr.Pair[int32]
	defOff    []int32
	defs      []int32
	last      []int32
	inWork    []int32
	placedAt  []int32
	work      []int32
	placedBuf []csr.Pair[placedPhi]
}

// variable is a promoted alloca or a recorded local: the prefix of its
// phis' names and its type.
type variable struct {
	name string
	typ  ir.Type
}

type placedPhi struct {
	phi *ir.Instr
	v   int32
}

type undo struct {
	v    int32
	prev ir.Value
}

// construct is the one SSA construction. It removes unreachable
// blocks, numbers the promotable allocas of f and the locals ls
// recorded together in the order their allocas stand in f, places
// phis, renames, deletes dead phis and renumbers the value ids. ls may
// be nil. It returns the number of allocas promoted.
func (pr *promoter) construct(f *ir.Func, ls *Locals) (int, error) {
	cfg.RemoveUnreachable(f)
	pr.f = f
	ok, err := pr.number(ls)
	if err != nil {
		return 0, err
	}
	n := 0
	if ok {
		dt := cfg.NewDomTree(f)
		pr.placePhis(cfg.DominanceFrontier(f, dt))
		pr.rename(dt, f.Entry())
		if err := pr.patch(); err != nil {
			return 0, err
		}
		removeDeadPhis(f)
		f.RecomputeCFG()
		n = pr.allocas
	}
	f.RenumberValues()
	return n, nil
}

// number numbers the variables of f and reports whether there are
// any.
func (pr *promoter) number(ls *Locals) (bool, error) {
	f := pr.f
	pr.cands = pr.cands[:0]
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && in.NumElems() == 1 && scalar(in.AllocTyp()) && !in.Kept() {
				pr.cands = append(pr.cands, in)
			}
		}
	}
	pr.id, pr.allocas = nil, 0
	if len(pr.cands) > 0 {
		pr.promotable(ls)
	}
	pr.grouped, pr.pending, pr.locals = false, 0, pr.locals[:0]
	if ls != nil && len(ls.vars) > 0 {
		if err := pr.groupEvents(ls); err != nil {
			return false, err
		}
		pr.orderLocals(ls)
	}
	if pr.allocas+len(pr.locals) == 0 {
		return false, nil
	}
	pr.merge(ls)
	return true, nil
}

// promotable keeps the candidates whose address is used only as the
// pointer of a load or store, and that no recorded local takes as a
// value: any other use lets the address escape. With recorded locals,
// the frontend's construction, it marks the others kept.
func (pr *promoter) promotable(ls *Locals) {
	f := pr.f
	pr.id = make(map[*ir.Instr]int32, len(pr.cands))
	for i, a := range pr.cands {
		pr.id[a] = int32(i)
	}
	pr.bad = zeroed(pr.bad, len(pr.cands))
	if ls != nil {
		for _, e := range ls.escapes {
			if a := pr.allocaOf(e.v); a >= 0 && live(f, e.blk) {
				pr.bad[a] = true
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, arg := range in.Args {
				a := pr.allocaOf(arg)
				switch {
				case a < 0:
				case in.Op == ir.OpLoad && i == 0, in.Op == ir.OpStore && i == 1:
				default:
					pr.bad[a] = true
				}
			}
		}
	}
	kept := pr.cands[:0]
	for i, a := range pr.cands {
		if pr.bad[i] {
			delete(pr.id, a)
			if ls != nil {
				a.MarkKept()
			}
			continue
		}
		kept = append(kept, a)
	}
	pr.cands, pr.allocas = kept, len(kept)
}

// live reports whether block b is still one of f's blocks after
// RemoveUnreachable.
func live(f *ir.Func, b *ir.Block) bool {
	return b.Index < len(f.Blocks) && f.Blocks[b.Index] == b
}

// groupEvents files the recorded events of live blocks by block,
// keeping program order.
func (pr *promoter) groupEvents(ls *Locals) error {
	f := pr.f
	for _, e := range ls.events {
		if !live(f, e.blk) {
			continue
		}
		if !live(f, ls.vars[e.x].blk) {
			return fmt.Errorf("%s: local %s used outside its declaration's reach", e.blk.Name(), ls.vars[e.x].name)
		}
		if !e.def {
			pr.pending++
		}
	}
	pr.eventOff, pr.events = csr.GroupBy(pr.eventOff, pr.events, len(f.Blocks), ls.events, func(e event) int32 {
		if !live(f, e.blk) {
			return -1
		}
		return int32(e.blk.Index)
	})
	pr.grouped = true
	return nil
}

// orderLocals lists the recorded locals declared in live blocks, in
// block order and, within a block, in declaration order.
func (pr *promoter) orderLocals(ls *Locals) {
	pairs := pr.localBuf[:0]
	for x, l := range ls.vars {
		if live(pr.f, l.blk) {
			pairs = append(pairs, csr.Pair[int32]{Key: int32(l.blk.Index), Val: int32(x)})
		}
	}
	pr.localBuf = pairs
	pr.localOff, pr.locals = csr.GroupInto(pr.localOff, pr.locals, len(pr.f.Blocks), pairs)
}

// merge numbers the promoted allocas and the recorded locals in one
// sequence, in the order their allocas stand: by block, and within a
// block by value id, a local's alloca taking the id that was next when
// it was declared.
func (pr *promoter) merge(ls *Locals) {
	allocas, locals := pr.cands, pr.locals
	pr.vars = slices.Grow(pr.vars[:0], len(allocas)+len(locals))
	if ls != nil {
		pr.varOf = zeroed(pr.varOf, len(ls.vars))
	}
	for len(allocas)+len(locals) > 0 {
		v := int32(len(pr.vars))
		if len(locals) > 0 {
			l := &ls.vars[locals[0]]
			if len(allocas) == 0 || l.blk.Index < allocas[0].Blk.Index ||
				l.blk == allocas[0].Blk && l.at <= allocas[0].ID() {
				pr.varOf[locals[0]] = v
				pr.vars = append(pr.vars, variable{l.name, l.typ})
				locals = locals[1:]
				continue
			}
		}
		a := allocas[0]
		pr.id[a] = v
		pr.vars = append(pr.vars, variable{a.Name(), a.AllocTyp()})
		allocas = allocas[1:]
	}
}

// allocaOf returns the variable number of the promoted alloca v is,
// or -1.
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

// eventsOf returns the recorded events of block b, in program order.
func (pr *promoter) eventsOf(b *ir.Block) []event {
	if !pr.grouped {
		return nil
	}
	return pr.events[pr.eventOff[b.Index]:pr.eventOff[b.Index+1]]
}

// placePhis places a phi for each variable at the iterated dominance
// frontier of its defining blocks, variable by variable, and splices
// each block's phis in ahead of its instructions, latest placed first.
func (pr *promoter) placePhis(df [][]*ir.Block) {
	f := pr.f
	nb := len(f.Blocks)

	// The defining blocks of every variable, in block order.
	pairs := pr.defBuf[:0]
	last := zeroed(pr.last, len(pr.vars))
	def := func(v int32, bi int) {
		if last[v] != int32(bi)+1 {
			last[v] = int32(bi) + 1
			pairs = append(pairs, csr.Pair[int32]{Key: v, Val: int32(bi)})
		}
	}
	for bi, b := range f.Blocks {
		if pr.allocas > 0 {
			for _, in := range b.Instrs {
				if in.Op != ir.OpStore {
					continue
				}
				if v := pr.allocaOf(in.Args[1]); v >= 0 {
					def(v, bi)
				}
			}
		}
		for _, e := range pr.eventsOf(b) {
			if e.def {
				def(pr.varOf[e.x], bi)
			}
		}
	}
	pr.defBuf, pr.last = pairs, last
	pr.defOff, pr.defs = csr.GroupInto(pr.defOff, pr.defs, len(pr.vars), pairs)
	defOff, defs := pr.defOff, pr.defs

	// Worklist placement; stamps are variable number + 1.
	inWork := zeroed(pr.inWork, nb)
	placedAt := zeroed(pr.placedAt, nb)
	work := pr.work[:0]
	placed := pr.placedBuf[:0]
	for vi, v := range pr.vars {
		stamp := int32(vi) + 1
		prefix := ""
		work = work[:0]
		for _, bi := range defs[defOff[vi]:defOff[vi+1]] {
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
					prefix = v.name + "."
				}
				phi := &ir.Instr{Op: ir.OpPhi, Typ: v.typ}
				phi.SetName(f.FreshName(prefix))
				placed = append(placed, csr.Pair[placedPhi]{Key: int32(fb.Index), Val: placedPhi{phi, int32(vi)}})
				// A phi is a new definition; propagate.
				if inWork[fb.Index] != stamp {
					inWork[fb.Index] = stamp
					work = append(work, int32(fb.Index))
				}
			}
		}
	}
	pr.inWork, pr.placedAt, pr.work, pr.placedBuf = inWork, placedAt, work, placed

	// Group the placed phis by block, keeping placement order.
	pr.placedOff, pr.placed = csr.GroupInto(pr.placedOff, pr.placed, nb, placed)

	for bi, b := range f.Blocks {
		ps := pr.placed[pr.placedOff[bi]:pr.placedOff[bi+1]]
		if len(ps) == 0 {
			continue
		}
		instrs := make([]*ir.Instr, 0, len(ps)+len(b.Instrs))
		for i := len(ps) - 1; i >= 0; i-- {
			b.Attach(ps[i].phi)
			instrs = append(instrs, ps[i].phi)
		}
		b.Instrs = append(instrs, b.Instrs...)
	}
}

// phisOf returns the phis placed in block b, in placement order.
func (pr *promoter) phisOf(b *ir.Block) []placedPhi {
	return pr.placed[pr.placedOff[b.Index]:pr.placedOff[b.Index+1]]
}

func (pr *promoter) push(v int32, val ir.Value) {
	pr.log = append(pr.log, undo{v, pr.cur[v]})
	pr.cur[v] = val
}

// top returns variable v's current definition. A read before any
// definition yields a fresh undef.
func (pr *promoter) top(v int32) ir.Value {
	if d := pr.cur[v]; d != nil {
		return d
	}
	return &ir.Undef{Typ: pr.vars[v].typ}
}

// rename walks the dominator tree from entry. Loads are not patched
// eagerly (that would be quadratic): a dropped load leaves its block
// and keeps the value it read as its operand, in place of its dead
// pointer, and a pending read of a recorded local keeps it likewise;
// patch replaces every use in one pass afterwards.
func (pr *promoter) rename(dt *cfg.DomTree, entry *ir.Block) {
	pr.cur = zeroed(pr.cur, len(pr.vars))
	pr.log = pr.log[:0]
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		mark := len(pr.log)
		// The placed phis head the block, latest placed first; each
		// defines its variable.
		ps := pr.phisOf(b)
		for i := len(ps) - 1; i >= 0; i-- {
			pr.push(ps[i].v, ps[i].phi)
		}
		if pr.allocas > 0 {
			pr.renameAllocas(b, len(ps))
		}
		// A recorded local's events touch no other variable, so they
		// may follow the block's loads and stores.
		for _, e := range pr.eventsOf(b) {
			v := pr.varOf[e.x]
			if e.def {
				pr.push(v, e.v)
			} else {
				e.v.(*pending).v = pr.top(v)
			}
		}
		// Fill phi operands in successors.
		for _, s := range b.Succs() {
			for _, p := range pr.phisOf(s) {
				ir.AddIncoming(p.phi, pr.top(p.v), b)
			}
		}
		for _, c := range dt.Children(b) {
			walk(c)
		}
		for i := len(pr.log) - 1; i >= mark; i-- {
			pr.cur[pr.log[i].v] = pr.log[i].prev
		}
		pr.log = pr.log[:mark]
	}
	walk(entry)
}

// renameAllocas drops the promoted allocas of block b, whose first
// nphis instructions are its placed phis, with their loads and stores.
func (pr *promoter) renameAllocas(b *ir.Block, nphis int) {
	kept := b.Instrs[:nphis]
	for _, in := range b.Instrs[nphis:] {
		switch {
		case in.Op == ir.OpLoad:
			if v := pr.allocaOf(in.Args[0]); v >= 0 {
				in.Args[0], in.Blk = pr.top(v), nil
				continue // drop the load
			}
		case in.Op == ir.OpStore:
			if v := pr.allocaOf(in.Args[1]); v >= 0 {
				pr.push(v, in.Args[0])
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
}

// errUnresolved reports an operand that stands for a read no renaming
// reached.
var errUnresolved = errors.New("a read of a local is not dominated by its declaration")

// patch replaces every operand that is a dropped load or a pending
// read by the value it read.
func (pr *promoter) patch() error {
	if pr.allocas == 0 && pr.pending == 0 {
		return nil
	}
	for _, b := range pr.f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				r := resolve(a)
				if p, ok := r.(*pending); ok && p.v == nil {
					return fmt.Errorf("%s: %w", in.Ref(), errUnresolved)
				}
				in.Args[i] = r
			}
		}
	}
	return nil
}

// resolve returns the value v stands for. A dropped load or a pending
// read may have read another (a definition by a read value), so it
// follows the chain to its end and points every link there.
func resolve(v ir.Value) ir.Value {
	end := v
	for {
		next := link(end)
		if next == nil {
			break
		}
		end = next
	}
	for v != end {
		next := link(v)
		switch in := v.(type) {
		case *ir.Instr:
			in.Args[0] = end
		case *pending:
			in.v = end
		}
		v = next
	}
	return end
}

// link returns the value a dropped load or a resolved pending read
// read, or nil when v is neither.
func link(v ir.Value) ir.Value {
	switch v := v.(type) {
	case *ir.Instr:
		if dropped(v) {
			return v.Args[0]
		}
	case *pending:
		return v.v
	}
	return nil
}

// dropped reports whether in is a load rename dropped: a load outside
// any block, holding the value it read.
func dropped(in *ir.Instr) bool { return in.Op == ir.OpLoad && in.Blk == nil }

// removeDeadPhis deletes phis whose results are used by nothing but
// other dead phis. Unpruned phi placement leaves such phis behind
// (e.g. a loop-header phi for a variable that is always reassigned
// before use); they would otherwise feed undef into interpreters and
// pollute analysis statistics.
func removeDeadPhis(f *ir.Func) {
	// Mark phis reachable from non-phi uses. live is a bitmap over
	// value ids: few phis survive, so a byte per id would cost more
	// than a map of the live ones.
	live := make([]uint64, (f.NumValues()+63)/64)
	isLive := func(in *ir.Instr) bool { return live[in.ID()/64]&(1<<(in.ID()%64)) != 0 }
	var stack []*ir.Instr
	mark := func(v ir.Value) {
		if phi, ok := v.(*ir.Instr); ok && phi.Op == ir.OpPhi && !isLive(phi) {
			live[phi.ID()/64] |= 1 << (phi.ID() % 64)
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
			if in.Op == ir.OpPhi && !isLive(in) {
				continue
			}
			kept = append(kept, in)
		}
		clear(b.Instrs[len(kept):])
		b.Instrs = kept
	}
}

func scalar(t ir.Type) bool { return ir.IsInt(t) || ir.IsPtr(t) }

// zeroed returns s with length n and every element zero, on its own
// array when that is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// VerifySSA checks the dominance property of strict SSA form: every
// use of a value is dominated by its definition. Phi uses are checked
// at the end of the corresponding incoming block. It complements the
// structural ir.Verify.
func VerifySSA(f *ir.Func) error {
	f.RecomputeCFG()
	dt := cfg.NewDomTree(f)
	// pos[id] is the position of the instruction with that value id.
	pos := make([]int32, f.NumValues())
	i := int32(0)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			id := in.ID()
			if id < 0 || id >= len(pos) {
				return fmt.Errorf("%s has no value id of this function", in.Ref())
			}
			pos[id] = i
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
			if pos[def.ID()] >= pos[user.ID()] {
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
					if err := check(in, a, in.PhiBlocks()[i]); err != nil {
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
