// Package csr files values under small integer keys as compressed
// sparse rows: one offset array and the values in key order. Graphs
// stored that way can be walked too.
package csr

// Pair is one value filed under a key.
type Pair[V any] struct {
	Key int32
	Val V
}

// Reached marks the nodes that a source, a node without in-edges,
// reaches through one or more edges. Node v has indeg[v] in-edges and
// the out-edges succ[off[v]:off[v+1]].
func Reached(indeg, succ, off []int32) []bool {
	reached := make([]bool, len(indeg))
	var stack []int32
	for v, n := range indeg {
		if n == 0 {
			stack = append(stack, int32(v))
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range succ[off[v]:off[v+1]] {
			if !reached[w] {
				reached[w] = true
				stack = append(stack, w)
			}
		}
	}
	return reached
}

// Group buckets pairs with keys in [0, n) by a stable counting sort:
// the values of key k are vals[off[k]:off[k+1]], in the order of pairs.
func Group[V any](n int, pairs []Pair[V]) (off []int32, vals []V) {
	off = make([]int32, n+1)
	for _, p := range pairs {
		off[p.Key+1]++
	}
	for k := 0; k < n; k++ {
		off[k+1] += off[k]
	}
	vals = make([]V, len(pairs))
	for _, p := range pairs {
		vals[off[p.Key]] = p.Val
		off[p.Key]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, vals
}
