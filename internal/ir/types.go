// Package ir implements a typed, LLVM-like intermediate representation
// in static single assignment (SSA) form. It is the substrate on which
// every analysis in this repository runs: the e-SSA transformation
// (internal/essa), interval range analysis (internal/rangeanal), the
// strict less-than analysis that is the paper's contribution
// (internal/core), and the alias analyses built on top of them
// (internal/alias, internal/andersen).
//
// The instruction set is a deliberately small subset of LLVM IR: stack
// and heap allocation, loads and stores, integer arithmetic, integer
// comparison, a single-index getelementptr, phi functions, calls, and
// the usual terminators. Two extra instruction kinds — Sigma and Copy —
// exist only in the e-SSA form produced by internal/essa; they split
// live ranges at conditionals and subtractions as described in Figure 5
// of the paper.
//
// A module can be built programmatically with Builder, printed with
// Module.String, and parsed back with Parse. The textual syntax is
// stable and used heavily by the test suites of the analysis packages.
package ir

import "fmt"

// Type is the interface implemented by all IR types. Types are
// immutable after construction and compared structurally with Equal.
type Type interface {
	fmt.Stringer
	// SizeBytes returns the storage size of a value of this type.
	// Pointer types have size 8 (the IR models a 64-bit target).
	SizeBytes() int64
	isType()
}

// IntType is an integer type of a given bit width. The analyses in this
// repository treat all integers as mathematical integers; the width
// matters only for access-size reasoning in alias analysis.
type IntType struct {
	Bits int
}

func (t *IntType) String() string { return string(AppendType(nil, t)) }

// SizeBytes returns the byte size of the integer, rounding bit widths
// up to whole bytes.
func (t *IntType) SizeBytes() int64 { return int64((t.Bits + 7) / 8) }

func (t *IntType) isType() {}

// PtrType is a pointer to values of an element type.
type PtrType struct {
	Elem Type
}

func (t *PtrType) String() string { return string(AppendType(nil, t)) }

// SizeBytes returns 8: the IR models a 64-bit address space.
func (t *PtrType) SizeBytes() int64 { return 8 }

func (t *PtrType) isType() {}

// ArrayType is a fixed-length array. Arrays appear as the element type
// of allocas and globals; indexing them goes through GEP instructions.
type ArrayType struct {
	Elem Type
	Len  int64
}

func (t *ArrayType) String() string { return string(AppendType(nil, t)) }

// SizeBytes returns the total storage size of the array.
func (t *ArrayType) SizeBytes() int64 { return t.Len * t.Elem.SizeBytes() }

func (t *ArrayType) isType() {}

// VoidType is the result type of instructions that produce no value and
// the return type of functions that return nothing.
type VoidType struct{}

func (t *VoidType) String() string { return string(AppendType(nil, t)) }

// SizeBytes returns 0; void values cannot be stored.
func (t *VoidType) SizeBytes() int64 { return 0 }

func (t *VoidType) isType() {}

// FuncType describes a function signature.
type FuncType struct {
	Params []Type
	Ret    Type
}

func (t *FuncType) String() string { return string(AppendType(nil, t)) }

// SizeBytes returns 0; function types are not first-class storage.
func (t *FuncType) SizeBytes() int64 { return 0 }

func (t *FuncType) isType() {}

// Singleton types shared across the package. Types are compared
// structurally, so sharing is an optimization, not a requirement.
var (
	// I64 is the 64-bit integer type, the default scalar type of the
	// mini-C frontend.
	I64 = &IntType{Bits: 64}
	// I32 is the 32-bit integer type.
	I32 = &IntType{Bits: 32}
	// I8 is the 8-bit integer type, used for byte buffers.
	I8 = &IntType{Bits: 8}
	// I1 is the boolean type produced by comparisons.
	I1 = &IntType{Bits: 1}
	// Void is the unique void type.
	Void = &VoidType{}
)

// Ptr returns the pointer type to elem.
func Ptr(elem Type) Type { return &PtrType{Elem: elem} }

// ArrayOf returns the array type [n x elem].
func ArrayOf(n int64, elem Type) Type { return &ArrayType{Elem: elem, Len: n} }

// Equal reports whether two types are structurally equal.
func Equal(a, b Type) bool {
	switch a := a.(type) {
	case *IntType:
		b, ok := b.(*IntType)
		return ok && a.Bits == b.Bits
	case *PtrType:
		b, ok := b.(*PtrType)
		return ok && Equal(a.Elem, b.Elem)
	case *ArrayType:
		b, ok := b.(*ArrayType)
		return ok && a.Len == b.Len && Equal(a.Elem, b.Elem)
	case *VoidType:
		_, ok := b.(*VoidType)
		return ok
	case *FuncType:
		bf, ok := b.(*FuncType)
		if !ok || len(a.Params) != len(bf.Params) || !Equal(a.Ret, bf.Ret) {
			return false
		}
		for i := range a.Params {
			if !Equal(a.Params[i], bf.Params[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// GEPResultType returns the type of a GEP on a base pointer of type t:
// indexing a pointer-to-array yields a pointer to the array's element
// (array decay); indexing any other pointer yields the same pointer
// type. Returns nil if t is not a pointer.
func GEPResultType(t Type) Type {
	pt, ok := t.(*PtrType)
	if !ok {
		return nil
	}
	if at, ok := pt.Elem.(*ArrayType); ok {
		return Ptr(at.Elem)
	}
	return t
}

// IsInt reports whether t is an integer type.
func IsInt(t Type) bool {
	_, ok := t.(*IntType)
	return ok
}

// IsPtr reports whether t is a pointer type.
func IsPtr(t Type) bool {
	_, ok := t.(*PtrType)
	return ok
}

// Elem returns the element type of a pointer or array type, or nil if t
// is neither.
func Elem(t Type) Type {
	switch t := t.(type) {
	case *PtrType:
		return t.Elem
	case *ArrayType:
		return t.Elem
	}
	return nil
}
