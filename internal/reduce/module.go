// IR-level reduction: function, block, and instruction granularity.
// Candidates are built from the current best module's textual form —
// reparsed fresh for every candidate so trials never share mutable IR
// — and are accepted only if they verify (ir.Parse runs ir.Verify) and
// survive a print→parse round trip. That round trip is the safety
// gate the corpus depends on: a reduced module is stored as text, and
// replay must be able to parse it back.
//
// Three passes iterate to a fixpoint:
//
//   - Functions: ddmin over non-entry functions; a deleted function's
//     call sites degrade to external calls, which is legal IR.
//   - Blocks: each non-entry block that ends in an unconditional jump
//     to a phi-free successor is a bypass candidate — predecessors'
//     edges are redirected past it and the block is deleted.
//   - Instructions: ddmin over non-terminator instructions; a deleted
//     instruction's uses are replaced with undef of its type.
package reduce

import (
	"context"
	"fmt"

	"repro/internal/budget"
	"repro/internal/ir"
)

// ModuleResult is the outcome of one Module reduction.
type ModuleResult struct {
	// Source is the minimized module's textual form.
	Source string
	// Module is the parsed form of Source.
	Module *ir.Module
	// InstrsBefore and InstrsAfter count instructions across the
	// module.
	InstrsBefore, InstrsAfter int
	Stats                     Stats
}

// Module minimizes m under pred. The entry function (entry == "" means
// "main") is never deleted, though its body still shrinks. pred must
// hold for m itself. m is never mutated.
func Module(m *ir.Module, entry string, pred func(*ir.Module) bool, spec budget.Spec) (*ModuleResult, error) {
	if entry == "" {
		entry = "main"
	}
	base := m.String()
	cur, err := ir.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("reduce: input module does not round-trip: %w", err)
	}
	if !pred(cur) {
		return nil, fmt.Errorf("reduce: predicate does not hold on the input")
	}
	res := &ModuleResult{InstrsBefore: cur.NumInstrs()}
	bud := spec.Start(context.Background())

	// check validates a candidate: it must round-trip (which reverifies
	// it) and still satisfy the predicate. Returns the reparsed module.
	check := func(cand *ir.Module) *ir.Module {
		text := cand.String()
		rt, err := ir.Parse(text)
		if err != nil {
			return nil
		}
		if !pred(rt) {
			return nil
		}
		return rt
	}

	for {
		res.Stats.Passes++
		before := res.Stats.Removed
		cur = reduceFuncs(cur, entry, check, bud, &res.Stats)
		cur = reduceBlocks(cur, check, bud, &res.Stats)
		cur = reduceInstrs(cur, check, bud, &res.Stats)
		if res.Stats.Exhausted || res.Stats.Removed == before {
			break
		}
	}
	res.Module = cur
	res.Source = cur.String()
	res.InstrsAfter = cur.NumInstrs()
	return res, nil
}

// reclone reparses the module's own text; candidates mutate the clone,
// never the current best.
func reclone(m *ir.Module) *ir.Module {
	c, err := ir.Parse(m.String())
	if err != nil {
		// The current best always round-trips (check enforced it).
		panic(fmt.Sprintf("reduce: current best stopped round-tripping: %v", err))
	}
	return c
}

// reduceFuncs ddmins the set of deletable (non-entry) functions.
func reduceFuncs(m *ir.Module, entry string, check func(*ir.Module) *ir.Module, bud *budget.B, st *Stats) *ir.Module {
	var deletable []int
	for i, f := range m.Funcs {
		if f.FName != entry {
			deletable = append(deletable, i)
		}
	}
	if len(deletable) == 0 {
		return m
	}
	best := m
	ddmin(deletable, func(keep []int) bool {
		cand := reclone(best)
		keepSet := map[int]bool{}
		for _, i := range keep {
			keepSet[i] = true
		}
		var funcs []*ir.Func
		for i, f := range cand.Funcs {
			if f.FName == entry || keepSet[i] {
				funcs = append(funcs, f)
				continue
			}
			// Call sites of a deleted function become external calls.
			detachCallee(cand, f)
		}
		cand.Funcs = funcs
		if rt := check(cand); rt != nil {
			best = rt
			return true
		}
		return false
	}, bud, st)
	// ddmin's bookkeeping of "removed" counts chunk elements; recompute
	// kept functions from best directly — the closure updated it.
	return best
}

// detachCallee unbinds every call to f so the printer renders a plain
// external call.
func detachCallee(m *ir.Module, f *ir.Func) {
	for _, g := range m.Funcs {
		g.Instrs(func(in *ir.Instr) bool {
			if in.Op == ir.OpCall && in.Callee() == f {
				in.SetCallee(nil)
			}
			return true
		})
	}
}

// reduceBlocks bypasses trivial forwarding blocks one at a time (the
// candidate space is small; plain greedy iteration is ddmin with chunk
// size 1 here).
func reduceBlocks(m *ir.Module, check func(*ir.Module) *ir.Module, bud *budget.B, st *Stats) *ir.Module {
	best := m
	// tried records rejected candidates; block indices shift when a
	// candidate is accepted, so the set resets on every acceptance.
	tried := map[blockRef]bool{}
	for {
		target := nextBypassable(best, tried)
		if target == nil {
			return best
		}
		if bud.Tick() != nil {
			st.Exhausted = true
			return best
		}
		st.Tests++
		cand := reclone(best)
		if !bypassBlock(cand, target.fn, target.blk) {
			// Could not apply on the clone (should not happen; indexes
			// are stable) — stop rather than loop forever.
			return best
		}
		if rt := check(cand); rt != nil {
			st.Removed++
			best = rt
			tried = map[blockRef]bool{}
			continue
		}
		tried[*target] = true
	}
}

// blockRef names a block by stable indices.
type blockRef struct {
	fn, blk int
}

func nextBypassable(m *ir.Module, tried map[blockRef]bool) *blockRef {
	for fi, f := range m.Funcs {
		for bi, b := range f.Blocks {
			if bi == 0 {
				continue // entry
			}
			ref := blockRef{fi, bi}
			if tried[ref] {
				continue
			}
			if isBypassable(b) {
				return &ref
			}
		}
	}
	return nil
}

// isBypassable reports whether b is a pure forwarder: it contains only
// an unconditional jump to a phi-free successor other than itself.
func isBypassable(b *ir.Block) bool {
	if len(b.Instrs) != 1 || b.Instrs[0].Op != ir.OpJmp {
		return false
	}
	succ := b.Instrs[0].Succs[0]
	return succ != b && len(succ.Phis()) == 0
}

// bypassBlock redirects every edge into blocks[blk] of funcs[fn] to
// that block's jump target and deletes the block. Returns false when
// the indexed block is no longer bypassable.
func bypassBlock(m *ir.Module, fn, blk int) bool {
	if fn >= len(m.Funcs) {
		return false
	}
	f := m.Funcs[fn]
	if blk >= len(f.Blocks) {
		return false
	}
	b := f.Blocks[blk]
	if !isBypassable(b) {
		return false
	}
	succ := b.Instrs[0].Succs[0]
	for _, other := range f.Blocks {
		if other == b {
			continue
		}
		if t := other.Term(); t != nil {
			for i, s := range t.Succs {
				if s == b {
					t.Succs[i] = succ
				}
			}
		}
	}
	f.Blocks = append(f.Blocks[:blk], f.Blocks[blk+1:]...)
	f.RecomputeCFG()
	return true
}

// reduceInstrs ddmins the deletable instructions of the whole module.
// A deletable instruction is any non-terminator; deleting one replaces
// its uses (if it has a result) with undef of the result type, and
// ir.Verify — via the round trip in check — rejects candidates that
// break structural invariants (e.g. deleting the icmp a sigma hangs
// off, since the sigma would then reference a value with no
// definition).
func reduceInstrs(m *ir.Module, check func(*ir.Module) *ir.Module, bud *budget.B, st *Stats) *ir.Module {
	best := m
	sites := instrSites(best)
	if len(sites) == 0 {
		return best
	}
	all := make([]int, len(sites))
	for i := range all {
		all[i] = i
	}
	ddmin(all, func(keep []int) bool {
		cand := reclone(best)
		candSites := instrSites(cand)
		if len(candSites) != len(sites) {
			return false
		}
		keepSet := map[int]bool{}
		for _, i := range keep {
			keepSet[i] = true
		}
		// Delete in reverse site order so instruction indices stay
		// valid while earlier deletions are still pending.
		for i := len(candSites) - 1; i >= 0; i-- {
			if !keepSet[i] {
				deleteInstr(cand, candSites[i])
			}
		}
		if rt := check(cand); rt != nil {
			best = rt
			sites = instrSites(best)
			return true
		}
		return false
	}, bud, st)
	return best
}

// instrSite names one instruction by stable indices.
type instrSite struct {
	fn, blk, in int
}

// instrSites lists every deletable instruction in module order.
func instrSites(m *ir.Module) []instrSite {
	var out []instrSite
	for fi, f := range m.Funcs {
		for bi, b := range f.Blocks {
			for ii, in := range b.Instrs {
				if !in.Op.IsTerminator() {
					out = append(out, instrSite{fi, bi, ii})
				}
			}
		}
	}
	return out
}

// deleteInstr removes the instruction at s, substituting undef for its
// result everywhere in the function.
func deleteInstr(m *ir.Module, s instrSite) {
	f := m.Funcs[s.fn]
	b := f.Blocks[s.blk]
	in := b.Instrs[s.in]
	if in.HasResult() {
		u := &ir.Undef{Typ: in.Typ}
		for _, ob := range f.Blocks {
			for _, oin := range ob.Instrs {
				oin.ReplaceUses(in, u)
			}
		}
	}
	b.RemoveAt(s.in)
}
