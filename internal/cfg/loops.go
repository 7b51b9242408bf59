package cfg

import (
	"sort"

	"repro/internal/ir"
)

// Loop is a natural loop: a header block plus the set of blocks that
// can reach a back edge to the header without leaving the loop.
type Loop struct {
	// Header is the single entry block of the loop.
	Header *ir.Block
	// Blocks is the loop body including the header.
	Blocks map[*ir.Block]bool
	// Parent is the innermost enclosing loop, or nil.
	Parent *Loop
	// Depth is the nesting depth; outermost loops have depth 1.
	Depth int
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// LoopInfo is the set of natural loops of a function.
type LoopInfo struct {
	// Loops lists all loops, outermost first within each nest.
	Loops []*Loop
	// ByHeader maps a header block to its loop.
	ByHeader map[*ir.Block]*Loop
	inner    map[*ir.Block]*Loop
}

// NewLoopInfo finds the natural loops of f via back edges of the
// dominator tree: an edge t->h is a back edge when h dominates t.
// Loops sharing a header are merged, matching LLVM's convention.
func NewLoopInfo(f *ir.Func, dt *DomTree) *LoopInfo {
	li := &LoopInfo{
		ByHeader: make(map[*ir.Block]*Loop),
		inner:    make(map[*ir.Block]*Loop),
	}
	for _, b := range f.Blocks {
		if !dt.Reachable(b) {
			continue
		}
		for _, s := range b.Succs() {
			if !dt.Dominates(s, b) {
				continue // not a back edge
			}
			loop := li.ByHeader[s]
			if loop == nil {
				loop = &Loop{Header: s, Blocks: map[*ir.Block]bool{s: true}}
				li.ByHeader[s] = loop
				li.Loops = append(li.Loops, loop)
			}
			// Collect the body by walking predecessors backward from
			// the latch until the header.
			stack := []*ir.Block{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if loop.Blocks[x] {
					continue
				}
				loop.Blocks[x] = true
				for _, p := range x.Preds {
					if dt.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	// Establish nesting: sort by size ascending so the innermost loop
	// claims each block first.
	sorted := append([]*Loop(nil), li.Loops...)
	sort.Slice(sorted, func(i, j int) bool {
		return len(sorted[i].Blocks) < len(sorted[j].Blocks)
	})
	for _, l := range sorted {
		for b := range l.Blocks {
			if li.inner[b] == nil {
				li.inner[b] = l
			}
		}
	}
	for _, l := range sorted {
		// The parent is the innermost loop of the header that is not
		// the loop itself; search enclosing loops by size.
		for _, cand := range sorted {
			if cand == l || len(cand.Blocks) < len(l.Blocks) {
				continue
			}
			if cand.Blocks[l.Header] && cand != l {
				if l.Parent == nil || len(cand.Blocks) < len(l.Parent.Blocks) {
					l.Parent = cand
				}
			}
		}
	}
	for _, l := range li.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return li
}

// InnermostLoop returns the innermost loop containing b, or nil.
func (li *LoopInfo) InnermostLoop(b *ir.Block) *Loop { return li.inner[b] }

// Depth returns the loop nesting depth of b; 0 when b is not in any
// loop.
func (li *LoopInfo) Depth(b *ir.Block) int {
	if l := li.inner[b]; l != nil {
		return l.Depth
	}
	return 0
}

// RemoveUnreachable deletes blocks not reachable from the entry block
// and drops phi incoming entries that named them. Returns the number
// of blocks removed.
func RemoveUnreachable(f *ir.Func) int {
	f.RecomputeCFG()
	reachable := make(map[*ir.Block]bool)
	var stack []*ir.Block
	if e := f.Entry(); e != nil {
		stack = append(stack, e)
		reachable[e] = true
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if !reachable[s] {
				reachable[s] = true
				stack = append(stack, s)
			}
		}
	}
	if len(reachable) == len(f.Blocks) {
		return 0
	}
	removed := len(f.Blocks) - len(reachable)
	var kept []*ir.Block
	for _, b := range f.Blocks {
		if reachable[b] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
	for _, b := range f.Blocks {
		for _, phi := range b.Instrs[:b.NumPhis()] {
			phi.RetainIncoming(func(pb *ir.Block) bool { return reachable[pb] })
		}
	}
	f.RecomputeCFG()
	return removed
}

// SplitCriticalEdges splits every critical edge of f — an edge from a
// block with multiple successors to a block with multiple predecessors
// — by inserting a fresh block containing a single jump. Phi incoming
// blocks are rewired. e-SSA construction requires the split so that
// sigma copies can be placed on a specific edge. Returns the number of
// edges split.
func SplitCriticalEdges(f *ir.Func) int {
	n := 0
	// Iterate over a snapshot: splitting appends blocks.
	blocks := append([]*ir.Block(nil), f.Blocks...)
	for _, b := range blocks {
		term := b.Term()
		if term == nil || len(term.Succs) < 2 {
			continue
		}
		for i, s := range term.Succs {
			if len(s.Preds) < 2 {
				continue
			}
			mid := f.NewBlock(b.Name() + "." + s.Name())
			jmp := &ir.Instr{Op: ir.OpJmp, Typ: ir.Void, Succs: []*ir.Block{s}}
			mid.Append(jmp)
			term.Succs[i] = mid
			for _, phi := range s.Phis() {
				for j, pb := range phi.PhiBlocks() {
					if pb == b {
						phi.PhiBlocks()[j] = mid
					}
				}
			}
			n++
		}
	}
	if n > 0 {
		f.RecomputeCFG()
	}
	return n
}
