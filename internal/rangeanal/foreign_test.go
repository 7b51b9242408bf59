package rangeanal

import (
	"testing"

	"repro/internal/ir"
)

// TestForeignValuesUntracked: a value the analysis did not track
// reports ⊤, and a constant its own point, wherever it comes from. The
// values of the other module sit where tracked values with finite
// intervals sit in the analyzed one, so an interval read through the
// wrong slot would not be ⊤.
func TestForeignValuesUntracked(t *testing.T) {
	const src = `
func @f(i64 %n) i64 {
entry:
  %a = and %n, 7
  %b = add %a, 1
  ret %b
}
`
	m := ir.MustParse(src)
	r := Analyze(m)
	f := m.Funcs[0]
	if got := r.Range(f.Entry().Instrs[0]); got != (Interval{0, 7}) {
		t.Fatalf("Range(%%a) = %v, want [0, 7]", got)
	}
	if got := r.Range(f.Entry().Instrs[1]); got != (Interval{1, 8}) {
		t.Fatalf("Range(%%b) = %v, want [1, 8]", got)
	}
	other := ir.MustParse(src).Funcs[0]
	detached := &ir.Instr{Op: ir.OpAnd, Typ: ir.I64, Args: []ir.Value{f.Params[0], ir.ConstInt(7)}}
	detached.SetName("a")
	for _, tc := range []struct {
		name string
		v    ir.Value
		want Interval
	}{
		{"value of another module", other.Entry().Instrs[0], Top},
		{"second value of another module", other.Entry().Instrs[1], Top},
		{"parameter of another module", other.Params[0], Top},
		{"detached instruction", detached, Top},
		{"constant", ir.ConstInt(5), Point(5)},
		{"undef", &ir.Undef{Typ: ir.I64}, Top},
	} {
		if got := r.Range(tc.v); got != tc.want {
			t.Errorf("%s: Range = %v, want %v", tc.name, got, tc.want)
		}
	}
}
