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
	return GroupInto(nil, nil, n, pairs)
}

// GroupInto is Group writing into off and vals, whose arrays it reuses
// when they are large enough, so that a caller grouping again and
// again allocates only while its inputs grow.
func GroupInto[V any](off []int32, vals []V, n int, pairs []Pair[V]) ([]int32, []V) {
	off = resize(off, n+1)
	clear(off)
	for _, p := range pairs {
		off[p.Key+1]++
	}
	for k := 0; k < n; k++ {
		off[k+1] += off[k]
	}
	vals = resize(vals, len(pairs))
	for _, p := range pairs {
		vals[off[p.Key]] = p.Val
		off[p.Key]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, vals
}

// GroupBy is GroupInto over items, each filed under key(item), or left
// out where that is negative, without building the pairs.
func GroupBy[V any](off []int32, vals []V, n int, items []V, key func(V) int32) ([]int32, []V) {
	off = resize(off, n+1)
	clear(off)
	m := 0
	for _, it := range items {
		if k := key(it); k >= 0 {
			off[k+1]++
			m++
		}
	}
	for k := 0; k < n; k++ {
		off[k+1] += off[k]
	}
	vals = resize(vals, m)
	for _, it := range items {
		if k := key(it); k >= 0 {
			vals[off[k]] = it
			off[k]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, vals
}

// resize returns s with length n, on its own array when that is large
// enough and on a new one otherwise.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
