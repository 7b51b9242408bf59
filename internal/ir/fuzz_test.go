package ir_test

import (
	"testing"

	"repro/internal/ir"
)

// FuzzParse hardens the textual-IR parser against arbitrary input: it
// must never panic, and whenever it accepts a module, every function
// verifies with dense value ids, and the printed form must equal the
// reference printer's and reparse to the same text (print∘parse is a
// projection). Seeds live in testdata/fuzz/FuzzParse alongside the
// f.Add literals.
func FuzzParse(f *testing.F) {
	f.Add(`module "m"

func @main() i64 {
entry:
  ret 0
}
`)
	f.Add(`module "esc \"q\" \\"

global @g [4 x i64]

func @main() i64 {
entry:
  %p = gep @g, 0
  %v = load %p
  ret %v
}
`)
	f.Add(`func @f(%x i64) i64 {
entry:
  %c = icmp lt %x, 10
  br %c, a, b
a:
  %s = sigma %x, %c, true, 0
  jmp b
b:
  %r = phi i64 [%x, entry], [%s, a]
  ret %r
}
`)
	f.Add("module \"\x00\"")
	f.Add("func @main() i64 {\nentry:\n  ret undef\n}\n")
	// Every opcode that carries a payload: allocas of one and of more
	// elements, a call bound to a function of the module and an
	// external one, a phi, a sigma on each side, a split copy whose
	// subtraction comes later and one whose operand is no instruction.
	f.Add(`func @g(i64 %n) i64 {
entry:
  %a = alloca i64, 1
  %v = alloca [4 x i64], 4
  %r = call i64 @g(%n)
  call void @ext(%a, %v)
  %c = icmp lt %n, %r
  br %c, then, else
then:
  %ns = sigma %n, cmp %c, true, left
  %rs = sigma %r, cmp %c, true, right
  %cp = copy %ns, sub %d
  %d = sub %rs, %cp
  jmp join
else:
  jmp join
join:
  %p = phi i64 [%d, then], [0, else]
  ret %p
}
`)
	f.Add("func @f(i64 %x) i64 {\nentry:\n  %c = copy %x, sub %x\n  ret %c\n}\n")
	// The line bound: Instr.Line is an int32.
	f.Add("func @f() i64 {\nentry:\n  ret 0 !line 2147483647\n}\n")
	f.Add("func @f() i64 {\nentry:\n  ret 0 !line 2147483648\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		for _, fn := range m.Funcs {
			if err := ir.VerifyFunc(fn); err != nil {
				t.Fatalf("accepted module fails VerifyFunc: %v\ninput:\n%q", err, src)
			}
			if n := len(fn.Params) + fn.NumInstrs(); fn.NumValues() != n {
				t.Fatalf("@%s: NumValues() = %d after parsing, want %d dense ids", fn.FName, fn.NumValues(), n)
			}
		}
		text := m.String()
		if want := refModule(m); text != want {
			t.Fatalf("printer differs from the reference on %q:\n%s", src, firstDiff(text, want))
		}
		m2, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("accepted module does not reparse: %v\ninput:\n%q\nprinted:\n%s", err, src, text)
		}
		if got := m2.String(); got != text {
			t.Fatalf("print not a fixpoint:\n--- first ---\n%s--- second ---\n%s", text, got)
		}
	})
}
