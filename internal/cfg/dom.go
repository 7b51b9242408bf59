// Package cfg provides control-flow-graph analyses over the IR defined
// in internal/ir: postorder numberings, dominator trees, dominance
// frontiers, liveness, and natural-loop detection. All analyses are
// per-function and are recomputed from scratch; transformation passes
// invalidate them by construction.
package cfg

import (
	"repro/internal/ir"
)

// PostOrder returns the blocks of f in postorder of a depth-first
// search from the entry block. Unreachable blocks are omitted.
func PostOrder(f *ir.Func) []*ir.Block {
	var order []*ir.Block
	seen := make([]bool, len(f.Blocks))
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		seen[b.Index] = true
		for _, s := range b.Succs() {
			if !seen[s.Index] {
				walk(s)
			}
		}
		order = append(order, b)
	}
	if entry := f.Entry(); entry != nil {
		walk(entry)
	}
	return order
}

// ReversePostOrder returns the blocks of f in reverse postorder, the
// canonical iteration order for forward dataflow analyses.
func ReversePostOrder(f *ir.Func) []*ir.Block {
	po := PostOrder(f)
	for i, j := 0, len(po)-1; i < j; i, j = i+1, j-1 {
		po[i], po[j] = po[j], po[i]
	}
	return po
}

// DomTree is the dominator tree of a function. The entry block
// dominates every reachable block; unreachable blocks have no entry in
// the tree and report no dominance relations.
type DomTree struct {
	fn *ir.Func
	// idom[b.Index] is the immediate dominator of b; nil for the
	// entry block and for unreachable blocks.
	idom []*ir.Block
	// number[b.Index] is b's reverse-postorder number; -1 if
	// unreachable.
	number []int
	// children[b.Index] lists the blocks immediately dominated by b.
	children [][]*ir.Block
	// pre/post are DFS-interval numbers on the dominator tree, giving
	// O(1) Dominates queries.
	pre, post []int
}

// NewDomTree computes the dominator tree of f using the iterative
// algorithm of Cooper, Harvey and Kennedy ("A Simple, Fast Dominance
// Algorithm").
func NewDomTree(f *ir.Func) *DomTree {
	n := len(f.Blocks)
	t := &DomTree{
		fn:       f,
		idom:     make([]*ir.Block, n),
		number:   make([]int, n),
		children: make([][]*ir.Block, n),
		pre:      make([]int, n),
		post:     make([]int, n),
	}
	for i := range t.number {
		t.number[i] = -1
	}
	rpo := ReversePostOrder(f)
	for i, b := range rpo {
		t.number[b.Index] = i
	}
	entry := f.Entry()
	if entry == nil {
		return t
	}
	t.idom[entry.Index] = entry // sentinel: entry's idom is itself
	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if t.number[p.Index] < 0 || t.idom[p.Index] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom != nil && t.idom[b.Index] != newIdom {
				t.idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	t.idom[entry.Index] = nil // drop the sentinel
	for _, b := range rpo {
		if d := t.idom[b.Index]; d != nil {
			t.children[d.Index] = append(t.children[d.Index], b)
		}
	}
	// DFS interval numbering for O(1) dominance queries.
	clock := 0
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		clock++
		t.pre[b.Index] = clock
		for _, c := range t.children[b.Index] {
			dfs(c)
		}
		clock++
		t.post[b.Index] = clock
	}
	dfs(entry)
	return t
}

func (t *DomTree) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for t.number[a.Index] > t.number[b.Index] {
			a = t.idom[a.Index]
			if a == nil {
				return b
			}
		}
		for t.number[b.Index] > t.number[a.Index] {
			b = t.idom[b.Index]
			if b == nil {
				return a
			}
		}
	}
	return a
}

// IDom returns the immediate dominator of b, or nil for the entry
// block and unreachable blocks.
func (t *DomTree) IDom(b *ir.Block) *ir.Block { return t.idom[b.Index] }

// Children returns the blocks whose immediate dominator is b.
func (t *DomTree) Children(b *ir.Block) []*ir.Block { return t.children[b.Index] }

// Reachable reports whether b is reachable from the entry block.
func (t *DomTree) Reachable(b *ir.Block) bool { return t.number[b.Index] >= 0 }

// Dominates reports whether a dominates b. Every block dominates
// itself. Unreachable blocks dominate nothing and are dominated by
// nothing.
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	if !t.Reachable(a) || !t.Reachable(b) {
		return false
	}
	return t.pre[a.Index] <= t.pre[b.Index] && t.post[b.Index] <= t.post[a.Index]
}

// StrictlyDominates reports whether a dominates b and a != b.
func (t *DomTree) StrictlyDominates(a, b *ir.Block) bool {
	return a != b && t.Dominates(a, b)
}

// DominanceFrontier computes, for every reachable block b, the set of
// blocks on the dominance frontier of b, using the algorithm of
// Cooper, Harvey and Kennedy. The result is indexed by block Index.
func DominanceFrontier(f *ir.Func, t *DomTree) [][]*ir.Block {
	df := make([][]*ir.Block, len(f.Blocks))
	// last[r] is 1 + the index of the last block added to df[r].
	last := make([]int, len(f.Blocks))
	for _, b := range f.Blocks {
		if !t.Reachable(b) || len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if !t.Reachable(p) {
				continue
			}
			runner := p
			for runner != nil && runner != t.IDom(b) {
				if last[runner.Index] != b.Index+1 {
					last[runner.Index] = b.Index + 1
					df[runner.Index] = append(df[runner.Index], b)
				}
				runner = t.IDom(runner)
			}
		}
	}
	return df
}
