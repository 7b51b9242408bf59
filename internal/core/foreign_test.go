package core

import (
	"testing"

	"repro/internal/ir"
)

// twoFuncs holds two functions of one shape, so a value of @g has the
// id of the value of @f in the same place.
const twoFuncs = `
func @f(i64 %n) i64 {
entry:
  %a = add %n, 1
  %b = add %a, 1
  ret %b
}

func @g(i64 %n) i64 {
entry:
  %a = add %n, 1
  %b = add %a, 1
  ret %b
}
`

// TestForeignValuesUntracked: asked about a value that is not a
// variable of the function, LT answers as if it had no LT facts: index
// -1, no ordering either way, no LT set. Each value sits where a
// variable of @f with a proven ordering sits in its own function or
// module, so an index read through the wrong table would claim one.
func TestForeignValuesUntracked(t *testing.T) {
	m := ir.MustParse(twoFuncs)
	r := Analyze(m, nil, Options{})
	f := m.Funcs[0]
	a, b := f.Entry().Instrs[0], f.Entry().Instrs[1]
	if !r.LessThan(a, b) || !r.LessThan(f.Params[0], a) {
		t.Fatal("n < a < b not proven")
	}
	other := ir.MustParse(twoFuncs)
	detached := &ir.Instr{Op: ir.OpAdd, Typ: ir.I64, Args: []ir.Value{f.Params[0], ir.ConstInt(1)}}
	detached.SetName("a")
	for _, tc := range []struct {
		name string
		v    ir.Value
	}{
		{"value of another function", m.Funcs[1].Entry().Instrs[0]},
		{"parameter of another function", m.Funcs[1].Params[0]},
		{"value of another module", other.Funcs[0].Entry().Instrs[0]},
		{"parameter of another module", other.Funcs[0].Params[0]},
		{"detached instruction", detached},
		{"constant", ir.ConstInt(1)},
		{"undef", &ir.Undef{Typ: ir.I64}},
	} {
		fl := r.Func(f)
		if i := fl.Index(tc.v); i != -1 {
			t.Errorf("%s: Index = %d, want -1", tc.name, i)
		}
		if r.LessThan(tc.v, b) || r.LessThan(b, tc.v) || r.LessThan(tc.v, a) {
			t.Errorf("%s: ordered against a variable of @f", tc.name)
		}
	}
	foreign := other.Funcs[0].Entry().Instrs[1]
	if lt := r.LT(foreign); lt != nil {
		t.Errorf("LT of a value of another module = %v, want nil", lt)
	}
	if n := r.Func(other.Funcs[0]).Len(); n != 0 {
		t.Errorf("another module's function indexes %d variables, want 0", n)
	}
}
