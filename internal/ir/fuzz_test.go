package ir_test

import (
	"testing"

	"repro/internal/ir"
)

// FuzzParse hardens the textual-IR parser against arbitrary input: it
// must never panic, and whenever it accepts a module, the printed form
// must equal the reference printer's and reparse to the same text
// (print∘parse is a projection). Seeds live in testdata/fuzz/FuzzParse
// alongside the f.Add literals.
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
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
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
