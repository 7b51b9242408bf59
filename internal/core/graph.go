package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
)

// InequalityEdge is one strict relation: Less < Greater.
type InequalityEdge struct {
	Less, Greater ir.Value
}

// InequalityGraph materializes the graph Section 5 describes as
// implicit in the LT sets: a vertex per variable and an edge
// v1 → v2 whenever v1 ∈ LT(v2). Bodik et al. maintain this structure
// explicitly (their "inequality graph"); here it is derived from the
// solved sets, mainly for inspection and visualization.
func (r *Result) InequalityGraph(f *ir.Func) []InequalityEdge {
	fr := r.fns[f]
	if fr == nil {
		return nil
	}
	var edges []InequalityEdge
	for i, s := range fr.sets {
		for _, j := range s.Elems() {
			edges = append(edges, InequalityEdge{
				Less:    fr.vars[j],
				Greater: fr.vars[i],
			})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].Less.Name() != edges[b].Less.Name() {
			return edges[a].Less.Name() < edges[b].Less.Name()
		}
		return edges[a].Greater.Name() < edges[b].Greater.Name()
	})
	return edges
}

// DotInequalityGraph renders the inequality graph of f in Graphviz
// syntax. Transitive edges are included (the solved sets are closed);
// pass reduce=true to drop an edge when a two-step path implies it,
// which makes small graphs readable.
func (r *Result) DotInequalityGraph(f *ir.Func, reduce bool) string {
	edges := r.InequalityGraph(f)
	has := map[[2]string]bool{}
	for _, e := range edges {
		has[[2]string{e.Less.Name(), e.Greater.Name()}] = true
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph lt_%s {\n  rankdir=LR;\n", f.FName)
	nodes := map[string]bool{}
	for _, e := range edges {
		if reduce && r.transitivelyImplied(f, e, has) {
			continue
		}
		nodes[e.Less.Name()] = true
		nodes[e.Greater.Name()] = true
		fmt.Fprintf(&sb, "  %q -> %q;\n", e.Less.Name(), e.Greater.Name())
	}
	var names []string
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	sb.WriteString("}\n")
	return sb.String()
}

// transitivelyImplied reports whether edge e follows from two other
// edges via some midpoint.
func (r *Result) transitivelyImplied(f *ir.Func, e InequalityEdge, has map[[2]string]bool) bool {
	fr := r.fns[f]
	for _, mid := range fr.vars {
		mn := mid.Name()
		if mn == e.Less.Name() || mn == e.Greater.Name() {
			continue
		}
		if has[[2]string{e.Less.Name(), mn}] && has[[2]string{mn, e.Greater.Name()}] {
			return true
		}
	}
	return false
}
