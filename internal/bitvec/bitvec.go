// Package bitvec provides the one sparse bitmap set of the analysis
// stack, plus a hash-consing interner that lets equal sets share one
// allocation. The points-to solvers keep their points-to sets in it,
// and the less-than solver (internal/core) its LT sets.
//
// The representation is a sorted slice of (base, word) chunks: only
// 64-element windows that actually contain members are materialized,
// so a set over a 100k-object universe costs memory proportional to
// its population, not the universe. Chunks with an all-zero word are
// never kept, so equal sets have equal chunk slices. Union returns
// whether it grew, and UnionDelta additionally returns exactly the new
// elements — the primitive behind difference (delta) propagation,
// where a solver forwards only what a set gained since the last visit
// instead of re-walking the whole set.
//
// The interner deduplicates repetitive solver state (the MDE
// observation: most points-to sets in a big module are copies of each
// other, and most LT sets converge to a few shapes). Interned sets are
// canonical and MUST be treated as immutable; Interner.Intern returns
// the canonical instance for any equal set, so equality between
// interned sets is pointer equality.
package bitvec

import (
	"math/bits"
)

// chunk is one 64-element window of the universe: the members in
// [base*64, base*64+63] are the set bits of word.
type chunk struct {
	base int32
	word uint64
}

// Set is a sparse bitmap over non-negative integers. The zero value
// is the empty set, ready to use.
type Set struct {
	chunks []chunk
}

// find returns the position of base in s.chunks and whether it is
// present; when absent, the position is the insertion point.
func (s *Set) find(base int32) (int, bool) {
	lo, hi := 0, len(s.chunks)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.chunks[mid].base < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.chunks) && s.chunks[lo].base == base
}

// Add inserts i and reports whether the set changed.
func (s *Set) Add(i int) bool {
	base, bit := int32(i/64), uint64(1)<<(uint(i)%64)
	pos, ok := s.find(base)
	if ok {
		if s.chunks[pos].word&bit != 0 {
			return false
		}
		s.chunks[pos].word |= bit
		return true
	}
	s.chunks = append(s.chunks, chunk{})
	copy(s.chunks[pos+1:], s.chunks[pos:])
	s.chunks[pos] = chunk{base: base, word: bit}
	return true
}

// Remove deletes i and reports whether the set changed.
func (s *Set) Remove(i int) bool {
	if i < 0 {
		return false
	}
	base, bit := int32(i/64), uint64(1)<<(uint(i)%64)
	pos, ok := s.find(base)
	if !ok || s.chunks[pos].word&bit == 0 {
		return false
	}
	s.chunks[pos].word &^= bit
	if s.chunks[pos].word == 0 {
		s.chunks = append(s.chunks[:pos], s.chunks[pos+1:]...)
	}
	return true
}

// Has reports membership of i.
func (s *Set) Has(i int) bool {
	if i < 0 {
		return false
	}
	pos, ok := s.find(int32(i / 64))
	return ok && s.chunks[pos].word&(1<<(uint(i)%64)) != 0
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool { return len(s.chunks) == 0 }

// Len returns the cardinality.
func (s *Set) Len() int {
	n := 0
	for _, c := range s.chunks {
		n += bits.OnesCount64(c.word)
	}
	return n
}

// UnionWith folds o into s and reports whether s grew.
func (s *Set) UnionWith(o *Set) bool {
	delta := false
	s.merge(o, func(int32, uint64) { delta = true })
	return delta
}

// UnionDelta folds o into s and returns the set of elements that are
// new to s (nil when nothing changed). This is the delta-propagation
// primitive: the caller forwards only the returned set downstream.
func (s *Set) UnionDelta(o *Set) *Set {
	var d *Set
	s.merge(o, func(base int32, word uint64) {
		if d == nil {
			d = &Set{}
		}
		d.chunks = append(d.chunks, chunk{base: base, word: word})
	})
	return d
}

// merge is the shared union walk: onNew is called once per chunk that
// gained bits, with exactly the gained bits, in ascending base order.
func (s *Set) merge(o *Set, onNew func(base int32, word uint64)) {
	if len(o.chunks) == 0 {
		return
	}
	if len(s.chunks) == 0 {
		s.chunks = append(s.chunks, o.chunks...)
		for _, c := range o.chunks {
			onNew(c.base, c.word)
		}
		return
	}
	// Subset fast path: the steady state of a fixpoint solver is
	// unions that add nothing, which must not allocate.
	i, j := 0, 0
	subset := true
	for j < len(o.chunks) {
		for i < len(s.chunks) && s.chunks[i].base < o.chunks[j].base {
			i++
		}
		if i == len(s.chunks) || s.chunks[i].base != o.chunks[j].base ||
			o.chunks[j].word&^s.chunks[i].word != 0 {
			subset = false
			break
		}
		j++
	}
	if subset {
		return
	}
	merged := make([]chunk, 0, len(s.chunks)+len(o.chunks))
	i, j = 0, 0
	changed := false
	for i < len(s.chunks) || j < len(o.chunks) {
		switch {
		case j == len(o.chunks) || (i < len(s.chunks) && s.chunks[i].base < o.chunks[j].base):
			merged = append(merged, s.chunks[i])
			i++
		case i == len(s.chunks) || o.chunks[j].base < s.chunks[i].base:
			merged = append(merged, o.chunks[j])
			onNew(o.chunks[j].base, o.chunks[j].word)
			changed = true
			j++
		default:
			w := s.chunks[i].word | o.chunks[j].word
			if gained := w &^ s.chunks[i].word; gained != 0 {
				onNew(s.chunks[i].base, gained)
				changed = true
			}
			merged = append(merged, chunk{base: s.chunks[i].base, word: w})
			i++
			j++
		}
	}
	if changed {
		s.chunks = merged
	}
}

// IntersectWith narrows s to the members it shares with o.
func (s *Set) IntersectWith(o *Set) {
	kept, j := s.chunks[:0], 0
	for _, c := range s.chunks {
		for j < len(o.chunks) && o.chunks[j].base < c.base {
			j++
		}
		if j == len(o.chunks) {
			break
		}
		if o.chunks[j].base == c.base {
			if w := c.word & o.chunks[j].word; w != 0 {
				kept = append(kept, chunk{base: c.base, word: w})
			}
		}
	}
	s.chunks = kept
}

// ForEach visits the members in ascending order; returning false
// stops the walk.
func (s *Set) ForEach(f func(i int) bool) {
	for _, c := range s.chunks {
		w := c.word
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(int(c.base)*64 + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Elems returns the members in ascending order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// Equal reports set equality.
func (s *Set) Equal(o *Set) bool {
	if s == o {
		return true
	}
	if len(s.chunks) != len(o.chunks) {
		return false
	}
	for i, c := range s.chunks {
		if c != o.chunks[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether s and o share a member.
func (s *Set) Intersects(o *Set) bool {
	i, j := 0, 0
	for i < len(s.chunks) && j < len(o.chunks) {
		a, b := s.chunks[i], o.chunks[j]
		switch {
		case a.base < b.base:
			i++
		case b.base < a.base:
			j++
		default:
			if a.word&b.word != 0 {
				return true
			}
			i++
			j++
		}
	}
	return false
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	if len(s.chunks) == 0 {
		return &Set{}
	}
	return &Set{chunks: append([]chunk(nil), s.chunks...)}
}

// Interner hash-conses sets: Intern maps every equal set to one
// canonical *Set, so equal sets share storage and compare by pointer.
// Not safe for concurrent use; give each solver its own.
type Interner struct {
	table map[uint64][]*Set
	// ids numbers the canonical sets Index has returned: sets[ids[c]]
	// is c. Intern alone leaves both empty.
	ids  map[*Set]int32
	sets []*Set
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{table: map[uint64][]*Set{}}
}

// fingerprint is an FNV-1a style hash over the chunk stream.
func fingerprint(s *Set) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range s.chunks {
		h = (h ^ uint64(uint32(c.base))) * 1099511628211
		h = (h ^ c.word) * 1099511628211
	}
	return h
}

// Intern returns the canonical instance equal to s. The returned set
// must not be mutated; callers that need to grow a set Clone it first.
func (t *Interner) Intern(s *Set) *Set {
	fp := fingerprint(s)
	for _, cand := range t.table[fp] {
		if cand.Equal(s) {
			return cand
		}
	}
	t.table[fp] = append(t.table[fp], s)
	return s
}

// Index interns s and returns its canonical instance's index in
// Sets(): equal sets share one index, and indices count up from 0 in
// the order Index first met each set.
func (t *Interner) Index(s *Set) int32 {
	c := t.Intern(s)
	i, ok := t.ids[c]
	if !ok {
		if t.ids == nil {
			t.ids = map[*Set]int32{}
		}
		i = int32(len(t.sets))
		t.ids[c], t.sets = i, append(t.sets, c)
	}
	return i
}

// Sets returns the canonical instances by index.
func (t *Interner) Sets() []*Set { return t.sets }
