package alias

import (
	"slices"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/rangeanal"
)

// SRAA is the paper's contribution applied to alias queries: the
// Strict Relations Alias Analysis. Definition 3.11 gives its two
// criteria:
//
//  1. p1 and p2 do not alias if p1 ∈ LT(p2) or p2 ∈ LT(p1);
//  2. p1 = p + x1 and p2 = p + x2 (same SSA base pointer) do not
//     alias if x1 ∈ LT(x2) or x2 ∈ LT(x1).
//
// As an extension documented in DESIGN.md, same-base pointers whose
// variable offsets have provably disjoint intervals (scaled by access
// size) are also disambiguated when a range result is supplied; this
// mirrors the range-based criterion the paper cites from prior work
// and is disabled in the paper-faithful configuration.
type SRAA struct {
	lt *core.Result
	// ranges enables the offset-interval extension; nil disables it.
	ranges *rangeanal.Result
}

// NewSRAA builds the analysis from solved less-than sets.
func NewSRAA(lt *core.Result) *SRAA { return &SRAA{lt: lt} }

// NewSRAAWithRanges additionally enables the same-base interval
// criterion (extension; not part of the paper's LT configuration).
func NewSRAAWithRanges(lt *core.Result, r *rangeanal.Result) *SRAA {
	return &SRAA{lt: lt, ranges: r}
}

// Name returns "LT", the label the paper's evaluation uses.
func (s *SRAA) Name() string { return "LT" }

// Alias applies Definition 3.11.
func (s *SRAA) Alias(a, b Location) Result {
	pa, _ := preparePointer(a, nil)
	pb, _ := preparePointer(b, nil)
	// Values of different functions are never ordered: each function's
	// LT sets index only its own variables.
	var lt core.FuncLT
	if pa.fn == pb.fn {
		lt = s.lt.Func(pa.fn)
	}
	fa, fb := s.fact(lt, &pa), s.fact(lt, &pb)
	return s.pair(lt, &pa, &pb, &fa, &fb)
}

// ltFact is the per-pointer half of Definition 3.11.
type ltFact struct {
	// ptr is the pointer's dense LT index (-1 when unindexed).
	ptr int32
	// off is the LT index of the pointer's variable offset when it has
	// the shape base + x·scale (one variable index, no constant part),
	// and scale that scale; otherwise off is -1.
	off   int32
	scale int64
	// iv is the byte-offset interval from the base; ivOK is false when
	// it is unknown or the range extension is off.
	iv   rangeanal.Interval
	ivOK bool
}

func (s *SRAA) fact(lt core.FuncLT, p *Pointer) ltFact {
	f := ltFact{ptr: lt.Index(p.Loc.Ptr), off: -1}
	if len(p.d.varIdx) == 1 && p.d.constOff == 0 {
		f.off, f.scale = lt.Index(p.d.varIdx[0].idx), p.d.varIdx[0].scale
	}
	if s.ranges != nil {
		f.iv, f.ivOK = s.offsetInterval(p.d)
	}
	return f
}

// pair is Definition 3.11 over two prepared pointers.
func (s *SRAA) pair(lt core.FuncLT, a, b *Pointer, fa, fb *ltFact) Result {
	// Criterion 1: direct strict ordering between the pointers.
	if lt.Less(fa.ptr, fb.ptr) || lt.Less(fb.ptr, fa.ptr) {
		return NoAlias
	}
	if a.d.base != b.d.base {
		return MayAlias
	}
	// Criterion 2: common base with strictly ordered offsets. Only a
	// single GEP level is compared — offsets must measure from the
	// same base in the same units.
	if fa.scale == fb.scale && (lt.Less(fa.off, fb.off) || lt.Less(fb.off, fa.off)) {
		return NoAlias
	}
	// Extension (range-supported sraa bundle): common base with
	// provably disjoint byte-offset intervals, covering constant
	// subscripts as degenerate ranges.
	if fa.ivOK && fb.ivOK && disjointBytes(fa.iv, a.Loc.Size, fb.iv, b.Loc.Size) {
		return NoAlias
	}
	return MayAlias
}

// NewPrepared implements FuncPreparer: each pointer's LT indices and
// offset interval are looked up once per function.
func (s *SRAA) NewPrepared() Prepared { return &sraaPrepared{s: s} }

type sraaPrepared struct {
	s     *SRAA
	lt    core.FuncLT
	ptrs  []Pointer
	facts []ltFact
	// at maps an LT index to the pointer it indexes, or -1.
	at []int32
}

func (p *sraaPrepared) Prepare(f *ir.Func, ptrs []Pointer) {
	p.lt, p.ptrs, p.facts = p.s.lt.Func(f), ptrs, p.facts[:0]
	for i := range ptrs {
		p.facts = append(p.facts, p.s.fact(p.lt, &ptrs[i]))
	}
}

func (p *sraaPrepared) Pair(i, j int) Result {
	return p.s.pair(p.lt, &p.ptrs[i], &p.ptrs[j], &p.facts[i], &p.facts[j])
}

// Key is the same for every pointer: across bases only criterion 1
// applies, and it holds for the few pairs Exceptions lists.
func (p *sraaPrepared) Key(int) int { return 0 }

func (p *sraaPrepared) Cross(int, int) Result { return MayAlias }

// Exceptions lists the criterion-1 pairs with different bases, read
// from the LT set of each pointer.
func (p *sraaPrepared) Exceptions(yield func(i, j int)) {
	p.at = slices.Grow(p.at[:0], p.lt.Len())[:p.lt.Len()]
	for x := range p.at {
		p.at[x] = -1
	}
	for i := range p.facts {
		if x := p.facts[i].ptr; x >= 0 {
			p.at[x] = int32(i)
		}
	}
	for j := range p.facts {
		y := p.facts[j].ptr
		if y < 0 {
			continue
		}
		p.lt.ForEachLess(y, func(x int) bool {
			if i := p.at[x]; i >= 0 && p.ptrs[i].d.base != p.ptrs[j].d.base {
				yield(int(i), j)
			}
			return true
		})
	}
}

// offsetInterval computes the byte-offset interval of a decomposed
// pointer relative to its base: constOff plus the scaled intervals of
// every variable index. Returns ok=false when an index is completely
// unconstrained in both directions.
func (s *SRAA) offsetInterval(d decomposed) (rangeanal.Interval, bool) {
	out := rangeanal.Point(d.constOff)
	for _, vi := range d.varIdx {
		r := s.ranges.Range(vi.idx)
		if r.IsTop() {
			return rangeanal.Top, false
		}
		out = rangeanal.Add(out, rangeanal.Mul(r, rangeanal.Point(vi.scale)))
	}
	return out, true
}

// disjointBytes reports whether the byte ranges [o1, o1+size1) and
// [o2, o2+size2) cannot overlap, treating infinite bounds soundly.
func disjointBytes(o1 rangeanal.Interval, size1 int64, o2 rangeanal.Interval, size2 int64) bool {
	if o1.IsEmpty() || o2.IsEmpty() {
		return false
	}
	if o1.Hi != rangeanal.PosInf && o2.Lo != rangeanal.NegInf &&
		o1.Hi+size1 <= o2.Lo {
		return true
	}
	if o2.Hi != rangeanal.PosInf && o1.Lo != rangeanal.NegInf &&
		o2.Hi+size2 <= o1.Lo {
		return true
	}
	return false
}
