package ir

import "slices"

// ValueTable numbers the globals, parameters and instructions of one
// module with dense slots, so that a whole-module analysis keeps its
// per-value state in slices instead of maps keyed by Value. Globals
// take slots 0 to len(Globals)-1 by position; then each function's
// values follow, at its position's base plus their id.
//
// A table is a snapshot of the module. It stays valid until the next
// transform: a value created since reads as untracked, and after
// Func.RenumberValues the slots of that function's values are wrong.
// Slot re-derives a value's function from the function list it took,
// so reassigning Module.Funcs afterwards cannot misdirect it.
type ValueTable struct {
	globals []*Global
	funcs   []*Func
	// base[i] is the first slot of funcs[i]; base[len(funcs)] is Len.
	base []int32
}

// NewValueTable numbers m's values as they are now.
func NewValueTable(m *Module) *ValueTable {
	t := &ValueTable{
		globals: slices.Clone(m.Globals),
		funcs:   slices.Clone(m.Funcs),
		base:    make([]int32, len(m.Funcs)+1),
	}
	n := int32(len(m.Globals))
	for i, f := range m.Funcs {
		t.base[i] = n
		n += int32(f.NumValues())
	}
	t.base[len(m.Funcs)] = n
	return t
}

// Len returns the number of slots: every slot is in [0, Len()).
func (t *ValueTable) Len() int { return int(t.base[len(t.funcs)]) }

// FuncBase returns the first slot of the function at position i of
// the module's Funcs as the table was taken: the value with id k of
// that function has slot FuncBase(i)+k.
func (t *ValueTable) FuncBase(i int) int { return int(t.base[i]) }

// FuncIndex returns f's position among the table's functions, or -1
// when f is not one of them.
func (t *ValueTable) FuncIndex(f *Func) int {
	if f == nil {
		return -1
	}
	return position(t.funcs, f, f.index)
}

// Slot returns v's slot, or -1 when the table does not hold v: a
// constant, an undef, an instruction without a function or id, a value
// created after the table, or a value of another module. A nil table
// holds nothing.
func (t *ValueTable) Slot(v Value) int {
	if t == nil {
		return -1
	}
	if g, ok := v.(*Global); ok {
		return position(t.globals, g, g.index)
	}
	f, id := ValueID(v)
	i := t.FuncIndex(f)
	if i < 0 || id >= int(t.base[i+1]-t.base[i]) {
		return -1
	}
	return int(t.base[i]) + id
}

// GlobalIndex returns g's position in m.Globals, or -1 when g is not
// one of them.
func (m *Module) GlobalIndex(g *Global) int { return position(m.Globals, g, g.index) }

// position returns the index of x in s, or -1. hint is where x was
// placed when it was created; it answers in constant time unless a
// pass has since filtered or reordered s, and is never trusted
// unchecked.
func position[T comparable](s []T, x T, hint int) int {
	if hint < len(s) && s[hint] == x {
		return hint
	}
	return slices.Index(s, x)
}
