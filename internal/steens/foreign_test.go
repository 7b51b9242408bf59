package steens

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/minic"
)

const twoMallocs = `
int f() {
  int *p = malloc(8);
  int *q = malloc(8);
  *p = 1;
  *q = 2;
  return *p + *q;
}
`

func malloc(f *ir.Func, nth int) *ir.Instr {
	var out *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpMalloc {
			if nth == 0 {
				out = in
				return false
			}
			nth--
		}
		return true
	})
	return out
}

// TestForeignValuesUntracked: a value that is not a pointer value of
// the analyzed module has no usable class, so it may alias anything.
// The other module's mallocs sit where the analyzed module's sit, so a
// class read through the wrong slot would answer NoAlias.
func TestForeignValuesUntracked(t *testing.T) {
	m := minic.MustCompile("t", twoMallocs)
	a := Analyze(m)
	f := m.FuncByName("f")
	p, q := malloc(f, 0), malloc(f, 1)
	if got := a.Alias(alias.Loc(p), alias.Loc(q)); got != alias.NoAlias {
		t.Fatalf("p vs q = %s, want NoAlias", got)
	}
	other := minic.MustCompile("t", twoMallocs).FuncByName("f")
	detached := &ir.Instr{Op: ir.OpMalloc, Typ: ir.Ptr(ir.I64), Args: []ir.Value{ir.ConstInt(8)}}
	for _, tc := range []struct {
		name string
		v    ir.Value
	}{
		{"value of another module", malloc(other, 0)},
		{"detached instruction", detached},
		{"constant", &ir.Const{Val: 0, Typ: ir.Ptr(ir.I64)}},
		{"undef", &ir.Undef{Typ: ir.Ptr(ir.I64)}},
	} {
		if got := a.Alias(alias.Loc(tc.v), alias.Loc(q)); got != alias.MayAlias {
			t.Errorf("%s: Alias with q = %s, want MayAlias", tc.name, got)
		}
	}
}
