// Package rangeanal implements a Cousot-style interval range analysis
// over the SSA IR, in the role the paper assigns to Rodrigues et al.'s
// range analysis: supplying, for every integer variable x, an interval
// R(x) = [l, u]. The strict less-than analysis (internal/core) and the
// e-SSA construction (internal/essa) consume it to classify additions
// as additions, subtractions, or unknown instructions, and alias
// analyses use it to compare pointer offsets.
//
// The analysis is inter-procedural and context-insensitive: formal
// parameters behave like pseudo-phis over the actual arguments of
// every call site, exactly as described in Section 4 of the paper, in
// every function an entry point reaches through calls (the others may
// be called from outside the module, so their parameters are
// unconstrained), and call results union the callee's return ranges.
// Loops are handled with widening to a fixed point followed by a
// bounded narrowing phase that exploits the branch constraints carried
// by e-SSA sigma nodes.
package rangeanal

import (
	"fmt"
	"math"
)

// Infinity sentinels. Interval arithmetic saturates at these bounds.
const (
	NegInf = math.MinInt64
	PosInf = math.MaxInt64
)

// Interval is a closed integer interval [Lo, Hi]. Lo > Hi encodes the
// empty interval (bottom).
type Interval struct {
	Lo, Hi int64
}

// Canonical intervals.
var (
	// Top is the unconstrained interval.
	Top = Interval{NegInf, PosInf}
	// Bottom is the empty interval.
	Bottom = Interval{PosInf, NegInf}
)

// Point returns the singleton interval [c, c].
func Point(c int64) Interval { return Interval{c, c} }

// IsEmpty reports whether the interval contains no integers.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// IsTop reports whether the interval is unconstrained.
func (iv Interval) IsTop() bool { return iv.Lo == NegInf && iv.Hi == PosInf }

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x int64) bool { return iv.Lo <= x && x <= iv.Hi }

// Eq reports interval equality, with all empty intervals equal.
func (iv Interval) Eq(o Interval) bool {
	if iv.IsEmpty() && o.IsEmpty() {
		return true
	}
	return iv == o
}

func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "[]"
	}
	lo, hi := "-inf", "+inf"
	if iv.Lo != NegInf {
		lo = fmt.Sprintf("%d", iv.Lo)
	}
	if iv.Hi != PosInf {
		hi = fmt.Sprintf("%d", iv.Hi)
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

// Union returns the smallest interval containing both.
func Union(a, b Interval) Interval {
	if a.IsEmpty() {
		return b
	}
	if b.IsEmpty() {
		return a
	}
	return Interval{minI(a.Lo, b.Lo), maxI(a.Hi, b.Hi)}
}

// Intersect returns the intersection.
func Intersect(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Bottom
	}
	return Interval{maxI(a.Lo, b.Lo), minI(a.Hi, b.Hi)}
}

// Add returns the interval of x+y for x in a, y in b, saturating.
func Add(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Bottom
	}
	return Interval{addSat(a.Lo, b.Lo), addSat(a.Hi, b.Hi)}
}

// Sub returns the interval of x-y.
func Sub(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Bottom
	}
	return Interval{subSat(a.Lo, b.Hi), subSat(a.Hi, b.Lo)}
}

// Mul returns the interval of x*y.
func Mul(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Bottom
	}
	p := [4]int64{
		mulSat(a.Lo, b.Lo), mulSat(a.Lo, b.Hi),
		mulSat(a.Hi, b.Lo), mulSat(a.Hi, b.Hi),
	}
	lo, hi := p[0], p[0]
	for _, v := range p[1:] {
		lo, hi = minI(lo, v), maxI(hi, v)
	}
	return Interval{lo, hi}
}

// Div returns a sound interval for x/y (Go-truncated division). When
// the divisor interval contains zero the result is Top.
func Div(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Bottom
	}
	if b.Contains(0) || a.Lo == NegInf || a.Hi == PosInf ||
		b.Lo == NegInf || b.Hi == PosInf {
		return Top
	}
	p := [4]int64{a.Lo / b.Lo, a.Lo / b.Hi, a.Hi / b.Lo, a.Hi / b.Hi}
	lo, hi := p[0], p[0]
	for _, v := range p[1:] {
		lo, hi = minI(lo, v), maxI(hi, v)
	}
	return Interval{lo, hi}
}

// Rem returns a sound interval for x%y. With a strictly positive
// divisor bounded by u, the magnitude of the result is below u.
func Rem(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Bottom
	}
	if b.Lo > 0 && b.Hi != PosInf {
		if a.Lo >= 0 {
			hi := b.Hi - 1
			if a.Hi != PosInf && a.Hi < hi {
				hi = a.Hi
			}
			return Interval{0, hi}
		}
		return Interval{-(b.Hi - 1), b.Hi - 1}
	}
	return Top
}

// Neg returns the interval of -x.
func Neg(a Interval) Interval { return Sub(Point(0), a) }

// Widen returns prev widened against next: bounds that grew jump to
// infinity, guaranteeing termination of the ascending phase.
func Widen(prev, next Interval) Interval {
	if prev.IsEmpty() {
		return next
	}
	w := Union(prev, next)
	if w.Lo < prev.Lo {
		w.Lo = NegInf
	}
	if w.Hi > prev.Hi {
		w.Hi = PosInf
	}
	return w
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func addSat(a, b int64) int64 {
	if a == NegInf || b == NegInf {
		return NegInf
	}
	if a == PosInf || b == PosInf {
		return PosInf
	}
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		if b > 0 {
			return PosInf
		}
		return NegInf
	}
	return s
}

func subSat(a, b int64) int64 {
	if b == NegInf {
		if a == NegInf {
			return NegInf // conservative: -inf - -inf unknown, keep low
		}
		return PosInf
	}
	if b == PosInf {
		if a == PosInf {
			return PosInf
		}
		return NegInf
	}
	return addSat(a, -b)
}

func mulSat(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	neg := (a < 0) != (b < 0)
	inf := a == NegInf || a == PosInf || b == NegInf || b == PosInf
	if !inf {
		p := a * b
		if p/b == a && !(a == -1 && b == NegInf) && !(b == -1 && a == NegInf) {
			return p
		}
	}
	if neg {
		return NegInf
	}
	return PosInf
}
