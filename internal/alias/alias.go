// Package alias defines the alias-analysis framework: the query
// interface shared by all analyses, pointer decomposition utilities,
// LLVM-basic-aa-style heuristics (BA in the paper's evaluation), the
// strict-relations analysis built on the less-than sets of
// internal/core (LT / sraa), analysis chaining, and the aa-eval
// all-pairs evaluation driver that produces the paper's precision
// metrics.
package alias

import (
	"repro/internal/ir"
)

// Result is the answer to an alias query.
type Result int

const (
	// MayAlias is the conservative default: the analysis cannot
	// exclude overlap.
	MayAlias Result = iota
	// NoAlias means the two locations never overlap while both are
	// live.
	NoAlias
	// MustAlias means the two locations are provably identical.
	MustAlias
)

func (r Result) String() string {
	switch r {
	case NoAlias:
		return "NoAlias"
	case MustAlias:
		return "MustAlias"
	}
	return "MayAlias"
}

// Location is a memory access: a pointer and the byte size accessed
// through it.
type Location struct {
	Ptr  ir.Value
	Size int64
}

// Loc builds the Location of an access through p, sized by p's
// pointee type.
func Loc(p ir.Value) Location {
	size := int64(1)
	if e := ir.Elem(p.Type()); e != nil {
		size = e.SizeBytes()
	}
	return Location{Ptr: p, Size: size}
}

// Analysis is a pointer disambiguation method.
type Analysis interface {
	// Name identifies the analysis in reports ("BA", "LT", "CF"...).
	Name() string
	// Alias answers an alias query between two locations in the same
	// function.
	Alias(a, b Location) Result
}

// Chain combines analyses: the first definitive answer (NoAlias or
// MustAlias) wins, mirroring LLVM's aggregation of alias analyses.
type Chain struct {
	// ChainName labels the combination, e.g. "BA+LT".
	ChainName string
	// Analyses are consulted in order.
	Analyses []Analysis
}

// NewChain builds a chain with a "+"-joined name.
func NewChain(as ...Analysis) *Chain {
	name := ""
	for i, a := range as {
		if i > 0 {
			name += "+"
		}
		name += a.Name()
	}
	return &Chain{ChainName: name, Analyses: as}
}

// Name returns the chain's label.
func (c *Chain) Name() string { return c.ChainName }

// Alias consults each analysis in order.
func (c *Chain) Alias(a, b Location) Result {
	for _, an := range c.Analyses {
		if r := an.Alias(a, b); r != MayAlias {
			return r
		}
	}
	return MayAlias
}

// stripCopies looks through sigma and plain copy instructions, which
// denote the same run-time value as their source.
func stripCopies(v ir.Value) ir.Value {
	for {
		in, ok := v.(*ir.Instr)
		if !ok {
			return v
		}
		switch in.Op {
		case ir.OpSigma, ir.OpCopy:
			v = in.Args[0]
		default:
			return v
		}
	}
}

// decomposed is a pointer expressed as a base plus offsets collected
// from a GEP chain.
type decomposed struct {
	// base is the pointer at the root of the GEP chain, with copies
	// stripped.
	base ir.Value
	// constOff is the accumulated constant offset in bytes.
	constOff int64
	// varIdx lists non-constant index values along the chain (in
	// element units, with their scales).
	varIdx []scaledIdx
}

type scaledIdx struct {
	idx   ir.Value
	scale int64
}

// decompose walks v's GEP chain to a non-GEP base, accumulating
// constant byte offsets and recording variable indices. The indices are
// appended to buf, whose grown form is returned for reuse; d.varIdx is
// the appended tail.
func decompose(v ir.Value, buf []scaledIdx) (decomposed, []scaledIdx) {
	d := decomposed{}
	start := len(buf)
	v = stripCopies(v)
	for {
		in, ok := v.(*ir.Instr)
		if !ok || in.Op != ir.OpGEP {
			break
		}
		scale := int64(1)
		if e := ir.Elem(in.Typ); e != nil {
			scale = e.SizeBytes()
		}
		if c, isC := in.Args[1].(*ir.Const); isC {
			d.constOff += c.Val * scale
		} else {
			buf = append(buf, scaledIdx{idx: in.Args[1], scale: scale})
		}
		v = stripCopies(in.Args[0])
	}
	d.base = v
	d.varIdx = buf[start:len(buf):len(buf)]
	return d, buf
}

// Pointer is a location prepared for alias queries: the facts every
// analysis in this package reads, derived once. The evaluator prepares
// each pointer value of a function once and hands the slice to every
// FuncPreparer; Alias prepares its two locations the same way, so both
// paths apply one rule to the same facts.
type Pointer struct {
	Loc Location
	d   decomposed
	// kind classifies d.base, which is also the object it refers to
	// (see underlying).
	kind objKind
	// fn is the function Loc.Ptr belongs to; nil for globals.
	fn *ir.Func
}

// preparePointer derives l's facts, appending its variable indices to
// buf (see decompose).
func preparePointer(l Location, buf []scaledIdx) (Pointer, []scaledIdx) {
	d, buf := decompose(l.Ptr, buf)
	return Pointer{Loc: l, d: d, kind: underlying(d.base), fn: funcOf(l.Ptr)}, buf
}

// FuncPreparer is implemented by analyses that answer a function's
// all-pairs queries from per-pointer facts looked up once per function
// rather than once per query.
type FuncPreparer interface {
	Analysis
	// NewPrepared returns empty per-function state. An evaluator keeps
	// one per worker and refills it for every function.
	NewPrepared() Prepared
}

// Prepared is a FuncPreparer's per-pointer facts for one function.
//
// Across bases most analyses read only per-pointer facts, so the
// evaluator asks pairs of pointers with different GEP bases once per
// pair of key classes (see Workspace): Key, Cross and Exceptions state
// that split rule. Pair and Cross are symmetric.
type Prepared interface {
	// Prepare replaces the facts with those of ptrs, the pointer
	// values of f. ptrs stays valid until the next Prepare.
	Prepare(f *ir.Func, ptrs []Pointer)
	// Pair answers the query between ptrs[i] and ptrs[j]; it equals
	// the analysis's Alias on their locations.
	Pair(i, j int) Result
	// Key is ptrs[i]'s cross-base key: for two pointers with different
	// bases that Exceptions does not list, Pair depends only on their
	// two keys.
	Key(i int) int
	// Cross is that answer for the keys of ptrs[i] and ptrs[j]. It
	// holds for i == j too: the evaluator asks a class of pointers with
	// one key about itself through one representative.
	Cross(i, j int) Result
	// Exceptions calls yield for pairs of pointers with different
	// bases whose Pair may differ from Cross.
	Exceptions(yield func(i, j int))
}

// funcOf returns the function a value belongs to, or nil for globals
// and constants.
func funcOf(v ir.Value) *ir.Func {
	switch v := v.(type) {
	case *ir.Param:
		return v.Fn
	case *ir.Instr:
		if v.Blk != nil {
			return v.Blk.Fn
		}
	}
	return nil
}

// underlyingObject classifies what a pointer base refers to.
type objKind int

const (
	objUnknown objKind = iota
	objAlloca
	objMalloc
	objGlobal
	objParam
)

// underlying returns the base's allocation-site classification. The
// object is the base itself, so pointers with different bases always
// refer to different objects.
func underlying(base ir.Value) objKind {
	switch b := base.(type) {
	case *ir.Global:
		return objGlobal
	case *ir.Param:
		return objParam
	case *ir.Instr:
		switch b.Op {
		case ir.OpAlloca:
			return objAlloca
		case ir.OpMalloc:
			return objMalloc
		}
	}
	return objUnknown
}
