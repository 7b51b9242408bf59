package alias

import "repro/internal/ir"

// PreparePointers prepares vals as the evaluator does, for the external
// tests that compare each analysis's Prepared against its Alias.
func PreparePointers(vals []ir.Value) []Pointer {
	ptrs := make([]Pointer, len(vals))
	var buf []scaledIdx
	for i, v := range vals {
		ptrs[i], buf = preparePointer(Loc(v), buf)
	}
	return ptrs
}

// BaseOf returns the GEP base of p, the value the evaluator groups
// pointers by.
func BaseOf(p *Pointer) ir.Value { return p.d.base }
