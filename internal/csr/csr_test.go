package csr

import (
	"math/rand"
	"slices"
	"testing"
)

// TestGroup: every key's values come out in input order, and keys
// without values get empty rows.
func TestGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 40} {
		var pairs []Pair[int]
		want := make([][]int, n)
		for i := 0; n > 0 && i < 3*n; i++ {
			k := rng.Intn(n)
			pairs = append(pairs, Pair[int]{int32(k), i})
			want[k] = append(want[k], i)
		}
		off, vals := Group(n, pairs)
		if len(off) != n+1 || off[0] != 0 || int(off[n]) != len(pairs) {
			t.Fatalf("n=%d: offsets %v", n, off)
		}
		for k := 0; k < n; k++ {
			if got := vals[off[k]:off[k+1]]; !slices.Equal(got, want[k]) && len(got)+len(want[k]) > 0 {
				t.Errorf("n=%d key %d: %v, want %v", n, k, got, want[k])
			}
		}
	}
}

// TestReached: a source marks what it reaches, itself excluded, and a
// cycle that no source enters stays unmarked.
func TestReached(t *testing.T) {
	// 0 → 1 → 2 → 1, 3 → 3, 4 → 5 → 4.
	succ := [][]int32{{1}, {2}, {1}, {3}, {5}, {4}}
	indeg := make([]int32, len(succ))
	off := []int32{0}
	var flat []int32
	for _, ws := range succ {
		for _, w := range ws {
			indeg[w]++
		}
		flat = append(flat, ws...)
		off = append(off, int32(len(flat)))
	}
	want := []bool{false, true, true, false, false, false}
	if got := Reached(indeg, flat, off); !slices.Equal(got, want) {
		t.Errorf("Reached = %v, want %v", got, want)
	}
}
