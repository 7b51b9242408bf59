package ir

import (
	"strings"
	"testing"
)

// TestParserRejects sweeps the parser's error branches: every
// malformed fragment must produce a line-numbered diagnostic, never a
// panic or a silently wrong module.
func TestParserRejects(t *testing.T) {
	wrap := func(body string) string {
		return "func @f(i64 %a) i64 {\nentry:\n" + body + "\n}"
	}
	cases := []struct {
		name, src, wantSub string
	}{
		{"top-level junk", "wibble", "unexpected token"},
		{"global needs @", "global g i64", "expected @name"},
		{"func needs @", "func f() i64 { }", "expected @name"},
		{"bad array type", "global @g [x i64]", "expected array length"},
		{"array missing x", "global @g [4 i64]", "expected 'x'"},
		{"bad int type", "global @g i999", "bad integer type"},
		{"type junk", "global @g {}", "expected type"},
		{"param needs name", "func @f(i64) i64 {\nentry:\n  ret 0\n}", "expected %name"},
		{"eof in body", "func @f() i64 {\nentry:\n  ret 0", "unexpected EOF"},
		{"alloca count", wrap("  %p = alloca i64, %a\n  ret 0"), "element count"},
		{"bad predicate", wrap("  %c = icmp zz %a, 1\n  ret 0"), "predicate"},
		{"phi bad label", wrap("  %p = phi i64 [1, 2]\n  ret 0"), "block label"},
		{"sigma needs cmp kw", wrap("  %s = sigma %a, %a, true\n  ret 0"), "expected 'cmp'"},
		{"sigma needs cmp ref", wrap("  %c = icmp lt %a, 1\n  br %c, x, y\nx:\n  %s = sigma %a, cmp 5, true\n  ret 0\ny:\n  ret 1"), "expected %cmp"},
		{"sigma bad arm", wrap("  %c = icmp lt %a, 1\n  br %c, x, y\nx:\n  %s = sigma %a, cmp %c, maybe\n  ret 0\ny:\n  ret 1"), "true/false"},
		{"sigma bad side", wrap("  %c = icmp lt %a, 1\n  br %c, x, y\nx:\n  %s = sigma %a, cmp %c, true, middle\n  ret 0\ny:\n  ret 1"), "left/right"},
		{"sigma cmp not icmp", wrap("  %d = add %a, 1\n  %s = sigma %a, cmp %d, true\n  ret 0"), "not an icmp"},
		{"copy bad kw", wrap("  %d = sub %a, 1\n  %k = copy %a, mul %d\n  ret 0"), "expected 'sub'"},
		{"call needs paren", wrap("  %r = call i64 @g %a\n  ret %r"), `expected "("`},
		{"call needs @", wrap("  %r = call i64 g(%a)\n  ret %r"), "expected @callee"},
		{"br labels", wrap("  %c = icmp lt %a, 1\n  br %c, 1, 2"), "block labels"},
		{"jmp label", wrap("  jmp 7"), "block label"},
		{"operand junk", wrap("  %x = add }, 1\n  ret 0"), "expected operand"},
		{"malloc size type", wrap("  %p = malloc i64, %p\n  ret 0"), "must be integer"},
		{"referenced undefined block", "func @f() i64 {\nentry:\n  jmp nowhere\n}", "never defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("accepted malformed input:\n%s", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

// TestPrintAllOps pins the printer's rendering for each opcode.
func TestPrintAllOps(t *testing.T) {
	src := `
global @g i64

func @callee(i64 %x) i64 {
entry:
  ret %x
}

func @f(i64* %p, i64 %a) i64 {
entry:
  %s1 = alloca i64, 4
  %m = malloc i64, %a
  %v = load %p
  store %v, %m
  %add = add %a, 1
  %sub = sub %a, 2
  %k = copy %a, sub %sub
  %mul = mul %add, %sub
  %dv = div %mul, 3
  %rm = rem %dv, 5
  %an = and %rm, 7
  %orr = or %an, 1
  %xo = xor %orr, 2
  %sl = shl %xo, 1
  %sr = shr %sl, 1
  %gp = gep %p, %sr
  %ld = load @g
  %cl = call i64 @callee(%ld)
  %ce = call void @ext()
  %c = icmp ge %cl, %a
  br %c, t, e
t:
  %st = sigma %a, cmp %c, true, right
  jmp j
e:
  jmp j
j:
  %ph = phi i64 [%st, t], [%a, e]
  ret %ph
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	text := m.String()
	for _, want := range []string{
		"alloca i64, 4", "malloc i64, %a", "load %p", "store %v, %m",
		"copy %a, sub %sub", "gep %p, %sr", "call i64 @callee(%ld)",
		"call void @ext()", "icmp ge", "sigma %a, cmp %c, true, right",
		"phi i64 [%st, t], [%a, e]", "global @g i64",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("printed module missing %q:\n%s", want, text)
		}
	}
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if m2.String() != text {
		t.Error("round trip unstable")
	}
}

// TestOpStringCoverage exercises the String methods on every op and
// predicate, including out-of-range values.
func TestOpStringCoverage(t *testing.T) {
	for op := OpAlloca; op <= OpRet; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty name", int(op))
		}
	}
	if !strings.Contains(Op(200).String(), "200") {
		t.Error("out-of-range op not diagnosed")
	}
	if !strings.Contains(CmpPred(99).String(), "99") {
		t.Error("out-of-range pred not diagnosed")
	}
	if (&FuncType{Params: []Type{I64}, Ret: Void}).String() != "void(i64)" {
		t.Errorf("functype rendering: %s", &FuncType{Params: []Type{I64}, Ret: Void})
	}
	if (&FuncType{}).SizeBytes() != 0 || Void.SizeBytes() != 0 {
		t.Error("non-storage sizes")
	}
	u := &Undef{Typ: I64}
	if u.Name() != "undef" || u.Ref() != "undef" || u.Type() != I64 {
		t.Error("undef accessors")
	}
}
