package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func fromElems(elems ...int) *Set {
	s := &Set{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

func TestAddHasElems(t *testing.T) {
	cases := []struct {
		name  string
		elems []int
	}{
		{"empty", nil},
		{"single", []int{0}},
		{"word-boundaries", []int{63, 64, 127, 128}},
		{"sparse", []int{5, 1000, 100000}},
		{"dense-word", []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"reverse-insert", []int{300, 200, 100, 0}},
		{"duplicates", []int{7, 7, 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Set{}
			want := map[int]bool{}
			for _, e := range tc.elems {
				grew := s.Add(e)
				if grew == want[e] {
					t.Errorf("Add(%d) grew=%v, want %v", e, grew, !want[e])
				}
				want[e] = true
			}
			if s.Len() != len(want) {
				t.Errorf("Len() = %d, want %d", s.Len(), len(want))
			}
			for e := range want {
				if !s.Has(e) {
					t.Errorf("Has(%d) = false after Add", e)
				}
			}
			for _, probe := range []int{-1, 1, 62, 65, 999, 99999} {
				if s.Has(probe) != want[probe] {
					t.Errorf("Has(%d) = %v, want %v", probe, s.Has(probe), want[probe])
				}
			}
			elems := s.Elems()
			if len(elems) != len(want) {
				t.Fatalf("Elems() = %v, want %d members", elems, len(want))
			}
			for i := 1; i < len(elems); i++ {
				if elems[i-1] >= elems[i] {
					t.Fatalf("Elems() not ascending: %v", elems)
				}
			}
		})
	}
}

func TestUnionWith(t *testing.T) {
	cases := []struct {
		name     string
		a, b     []int
		wantGrew bool
		want     []int
	}{
		{"empty-empty", nil, nil, false, nil},
		{"empty-gains-all", nil, []int{1, 70}, true, []int{1, 70}},
		{"subset-no-change", []int{1, 70, 500}, []int{70}, false, []int{1, 70, 500}},
		{"equal-no-change", []int{3, 64}, []int{3, 64}, false, []int{3, 64}},
		{"disjoint", []int{0}, []int{64}, true, []int{0, 64}},
		{"overlap-same-word", []int{1, 2}, []int{2, 3}, true, []int{1, 2, 3}},
		{"interleaved-chunks", []int{0, 128}, []int{64, 192}, true, []int{0, 64, 128, 192}},
		{"into-empty-from-empty", []int{5}, nil, false, []int{5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := fromElems(tc.a...), fromElems(tc.b...)
			before := b.Clone()
			if grew := a.UnionWith(b); grew != tc.wantGrew {
				t.Errorf("UnionWith grew=%v, want %v", grew, tc.wantGrew)
			}
			if got := a.Elems(); len(got) != len(tc.want) {
				t.Fatalf("union = %v, want %v", got, tc.want)
			} else {
				for i := range got {
					if got[i] != tc.want[i] {
						t.Fatalf("union = %v, want %v", got, tc.want)
					}
				}
			}
			if !b.Equal(before) {
				t.Error("UnionWith mutated its operand")
			}
		})
	}
}

// TestUnionDelta: the delta must be exactly the new elements — the
// contract delta propagation rests on.
func TestUnionDelta(t *testing.T) {
	cases := []struct {
		name      string
		a, b      []int
		wantDelta []int
	}{
		{"no-change-nil-delta", []int{1, 2, 64}, []int{2, 64}, nil},
		{"all-new", nil, []int{0, 63, 64}, []int{0, 63, 64}},
		{"partial-same-word", []int{1}, []int{1, 2}, []int{2}},
		{"partial-cross-words", []int{1, 128}, []int{1, 64, 129}, []int{64, 129}},
		{"empty-operand", []int{9}, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := fromElems(tc.a...), fromElems(tc.b...)
			d := a.UnionDelta(b)
			if tc.wantDelta == nil {
				if d != nil && !d.Empty() {
					t.Fatalf("delta = %v, want none", d.Elems())
				}
				return
			}
			if d == nil {
				t.Fatalf("delta = nil, want %v", tc.wantDelta)
			}
			got := d.Elems()
			if len(got) != len(tc.wantDelta) {
				t.Fatalf("delta = %v, want %v", got, tc.wantDelta)
			}
			for i := range got {
				if got[i] != tc.wantDelta[i] {
					t.Fatalf("delta = %v, want %v", got, tc.wantDelta)
				}
			}
			// The delta must be a well-formed Set in its own right.
			for _, e := range tc.wantDelta {
				if !d.Has(e) {
					t.Errorf("delta.Has(%d) = false", e)
				}
			}
		})
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		name string
		a, b []int
		want bool
	}{
		{"both-empty", nil, nil, false},
		{"one-empty", []int{1}, nil, false},
		{"disjoint-same-word", []int{1}, []int{2}, false},
		{"disjoint-chunks", []int{0}, []int{1000}, false},
		{"shared", []int{1, 700}, []int{700}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := fromElems(tc.a...), fromElems(tc.b...)
			if got := a.Intersects(b); got != tc.want {
				t.Errorf("Intersects = %v, want %v", got, tc.want)
			}
			if got := b.Intersects(a); got != tc.want {
				t.Errorf("Intersects (swapped) = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestInternIdentity: hash-consing must map equal sets to one pointer
// and distinct sets to distinct pointers.
func TestInternIdentity(t *testing.T) {
	in := NewInterner()
	a := in.Intern(fromElems(1, 64, 4096))
	b := in.Intern(fromElems(1, 64, 4096))
	if a != b {
		t.Error("equal sets interned to different pointers")
	}
	c := in.Intern(fromElems(1, 64))
	if c == a {
		t.Error("distinct sets interned to one pointer")
	}
	empty1, empty2 := in.Intern(&Set{}), in.Intern(&Set{})
	if empty1 != empty2 {
		t.Error("empty sets interned to different pointers")
	}
}

func TestIntersectWith(t *testing.T) {
	cases := []struct {
		name string
		a, b []int
		want []int
	}{
		{"empty-empty", nil, nil, nil},
		{"with-empty", []int{1, 70}, nil, nil},
		{"empty-with", nil, []int{1, 70}, nil},
		{"disjoint-same-word", []int{1}, []int{2}, nil},
		{"disjoint-chunks", []int{0, 128}, []int{64, 192}, nil},
		{"subset", []int{1, 70, 500}, []int{70}, []int{70}},
		{"equal", []int{3, 64}, []int{3, 64}, []int{3, 64}},
		{"partial-cross-words", []int{1, 2, 64, 129, 1000}, []int{2, 63, 129, 999}, []int{2, 129}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := fromElems(tc.a...), fromElems(tc.b...)
			before := b.Clone()
			a.IntersectWith(b)
			if want := fromElems(tc.want...); !a.Equal(want) {
				t.Fatalf("intersection = %v, want %v", a.Elems(), tc.want)
			}
			if !b.Equal(before) {
				t.Error("IntersectWith mutated its operand")
			}
		})
	}
}

func TestRemove(t *testing.T) {
	s := fromElems(3, 64, 100)
	if s.Remove(4) || s.Remove(-1) || s.Remove(1000) {
		t.Error("Remove of a non-member reported a change")
	}
	if !s.Remove(64) || s.Has(64) {
		t.Error("Remove(64) did not delete the member")
	}
	if !s.Remove(100) {
		t.Error("Remove(100) did not delete the member")
	}
	// Emptying a chunk must drop it, so equal sets stay Equal and
	// intern to one instance.
	if !s.Equal(fromElems(3)) {
		t.Errorf("after removals = %v, want [3]", s.Elems())
	}
	if !s.Remove(3) || !s.Empty() {
		t.Errorf("after removing every member = %v, want empty", s.Elems())
	}
}

// fromBytes builds a set from quick-generated members.
func fromBytes(bs []byte) *Set {
	s := &Set{}
	for _, b := range bs {
		s.Add(int(b) * 3) // spread across several chunks
	}
	return s
}

// TestLatticeProperties property-checks the set operations a fixed-point
// solver's correctness rests on: ∪ and ∩ must behave like a lattice's
// join and meet (commutative, idempotent, absorbing), and membership
// must agree with construction.
func TestLatticeProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1500}
	union := func(a, b []byte) *Set {
		s := fromBytes(a)
		s.UnionWith(fromBytes(b))
		return s
	}
	inter := func(a, b []byte) *Set {
		s := fromBytes(a)
		s.IntersectWith(fromBytes(b))
		return s
	}
	props := []struct {
		name string
		f    any
	}{
		{"union-commutative", func(a, b []byte) bool { return union(a, b).Equal(union(b, a)) }},
		{"union-idempotent", func(a []byte) bool { return union(a, a).Equal(fromBytes(a)) }},
		{"inter-commutative", func(a, b []byte) bool { return inter(a, b).Equal(inter(b, a)) }},
		{"inter-idempotent", func(a []byte) bool { return inter(a, a).Equal(fromBytes(a)) }},
		{"absorption", func(a, b []byte) bool {
			s := fromBytes(a)
			s.IntersectWith(union(a, b))
			return s.Equal(fromBytes(a))
		}},
		{"inter-membership", func(a, b []byte, probe byte) bool {
			e := int(probe) * 3
			return inter(a, b).Has(e) == (fromBytes(a).Has(e) && fromBytes(b).Has(e))
		}},
		{"membership", func(a []byte, probe byte) bool {
			want := false
			for _, x := range a {
				want = want || x == probe
			}
			return fromBytes(a).Has(int(probe)*3) == want
		}},
		{"remove", func(a []byte, probe byte) bool {
			// Remove drops exactly the probe: s ⊆ a, probe ∉ s, and at
			// most one member gone.
			s := fromBytes(a)
			s.Remove(int(probe) * 3)
			sub := fromBytes(a)
			sub.IntersectWith(s)
			return !s.Has(int(probe)*3) && sub.Equal(s) && s.Len() >= fromBytes(a).Len()-1
		}},
	}
	for _, p := range props {
		if err := quick.Check(p.f, cfg); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}

// TestCloneIndependence: mutating a clone must not leak into the
// original (interned sets rely on this to stay immutable).
func TestCloneIndependence(t *testing.T) {
	a := fromElems(1, 2, 3)
	b := a.Clone()
	b.Add(100)
	if a.Has(100) {
		t.Error("Clone shares storage with the original")
	}
	if !b.Has(1) || !b.Has(100) {
		t.Error("Clone lost members")
	}
}

// TestRandomizedAgainstMap cross-checks the sparse set against a plain
// map over random operation sequences.
func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s := &Set{}
		ref := map[int]bool{}
		for op := 0; op < 200; op++ {
			e := rng.Intn(2000)
			switch rng.Intn(3) {
			case 0:
				grew := s.Add(e)
				if grew == ref[e] {
					t.Fatalf("trial %d: Add(%d) grew=%v with ref=%v", trial, e, grew, ref[e])
				}
				ref[e] = true
			case 1:
				if s.Has(e) != ref[e] {
					t.Fatalf("trial %d: Has(%d) = %v, want %v", trial, e, s.Has(e), ref[e])
				}
			case 2:
				o := &Set{}
				refo := map[int]bool{}
				for k := 0; k < rng.Intn(10); k++ {
					x := rng.Intn(2000)
					o.Add(x)
					refo[x] = true
				}
				d := s.UnionDelta(o)
				for x := range refo {
					if !ref[x] {
						if d == nil || !d.Has(x) {
							t.Fatalf("trial %d: delta missing %d", trial, x)
						}
						ref[x] = true
					} else if d != nil && d.Has(x) {
						t.Fatalf("trial %d: delta claims pre-existing %d", trial, x)
					}
				}
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("trial %d: Len=%d want %d", trial, s.Len(), len(ref))
		}
	}
}
