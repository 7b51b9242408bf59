// Package csr files values under small integer keys as compressed
// sparse rows: one offset array and the values in key order.
package csr

// Pair is one value filed under a key.
type Pair[V any] struct {
	Key int32
	Val V
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
