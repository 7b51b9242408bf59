package minic

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/ssa"
)

// insSort is Figure 1(a) of the paper, verbatim.
const insSort = `
void ins_sort(int* v, int N) {
  int i, j;
  for (i = 0; i < N - 1; i++) {
    for (j = i + 1; j < N; j++) {
      if (v[i] > v[j]) {
        int tmp = v[i];
        v[i] = v[j];
        v[j] = tmp;
      }
    }
  }
}
`

// partition is Figure 1(b) of the paper, verbatim.
const partition = `
void partition(int *v, int N) {
  int i, j, p, tmp;
  p = v[N/2];
  for (i = 0, j = N - 1;; i++, j--) {
    while (v[i] < p) i++;
    while (p < v[j]) j--;
    if (i >= j)
      break;
    tmp = v[i];
    v[i] = v[j];
    v[j] = tmp;
  }
}
`

func TestLexBasics(t *testing.T) {
	toks, err := Lex("int x = 42; // comment\nx <<= 2; /* multi\nline */ x++;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		kinds = append(kinds, tok.Lit)
	}
	want := []string{"int", "x", "=", "42", ";", "x", "<<=", "2", ";", "x", "++", ";"}
	if len(kinds) != len(want) {
		t.Fatalf("tokens = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, kinds[i], want[i])
		}
	}
}

func TestLexError(t *testing.T) {
	if _, err := Lex("int x = $;"); err == nil {
		t.Error("lexer accepted '$'")
	}
}

func TestParseInsSort(t *testing.T) {
	prog, err := ParseProgram(insSort)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 1 {
		t.Fatalf("funcs = %d, want 1", len(prog.Funcs))
	}
	f := prog.Funcs[0]
	if f.Name != "ins_sort" || !f.Ret.Void || len(f.Params) != 2 {
		t.Errorf("bad signature: %s %s (%d params)", f.Ret, f.Name, len(f.Params))
	}
	if f.Params[0].Typ.PtrDepth != 1 || f.Params[1].Typ.PtrDepth != 0 {
		t.Errorf("param types: %s, %s", f.Params[0].Typ, f.Params[1].Typ)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int f( {",
		"int f() { return 1 }",          // missing ;
		"int f() { if x return; }",      // missing parens
		"int f() { int x = ; }",         // missing expr
		"int f() { y = 1; } int f() {}", // redefinition caught in lowering
	}
	for _, src := range cases[:4] {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("parser accepted %q", src)
		}
	}
}

func TestCompileInsSort(t *testing.T) {
	m, err := Compile("ins_sort", insSort)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FuncByName("ins_sort")
	if f == nil {
		t.Fatal("missing function")
	}
	if err := ssa.VerifySSA(f); err != nil {
		t.Fatalf("not valid SSA: %v\n%s", err, f)
	}
	// All scalar locals must be promoted: no allocas remain.
	n := 0
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpAlloca {
			n++
		}
		return true
	})
	if n != 0 {
		t.Errorf("%d allocas remain after promotion:\n%s", n, f)
	}
	// Array accesses must appear as GEPs off the parameter.
	geps := 0
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpGEP && in.Args[0] == ir.Value(f.Params[0]) {
			geps++
		}
		return true
	})
	if geps < 4 {
		t.Errorf("expected >=4 GEPs off %%v, got %d:\n%s", geps, f)
	}
}

func TestCompilePartition(t *testing.T) {
	m, err := Compile("partition", partition)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FuncByName("partition")
	if err := ssa.VerifySSA(f); err != nil {
		t.Fatalf("not valid SSA: %v\n%s", err, f)
	}
}

// execModule interprets the compiled module to check the frontend
// end-to-end: see interp_test.go for the interpreter.

func TestCompileGlobalsAndArrays(t *testing.T) {
	src := `
int g;
int table[8];

int sum(void) {
  int i;
  int s = 0;
  for (i = 0; i < 8; i++) {
    s += table[i];
  }
  return s + g;
}
`
	m, err := Compile("globals", src)
	if err != nil {
		t.Fatal(err)
	}
	if m.GlobalByName("g") == nil || m.GlobalByName("table") == nil {
		t.Fatal("globals missing")
	}
	g := m.GlobalByName("table")
	if g.Elem.String() != "[8 x i64]" {
		t.Errorf("table type = %s", g.Elem)
	}
	f := m.FuncByName("sum")
	// The global array must be accessed via a decaying GEP of i64* type.
	ok := false
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpGEP && in.Typ.String() == "i64*" {
			if gl, isG := in.Args[0].(*ir.Global); isG && gl.GName == "table" {
				ok = true
			}
		}
		return true
	})
	if !ok {
		t.Errorf("no decayed GEP on @table:\n%s", f)
	}
}

func TestCompileMallocTyping(t *testing.T) {
	src := `
int* make(int n) {
  int *p = malloc(8 * n);
  return p;
}

int** make2(int n) {
  int **q = malloc(8 * n);
  q[0] = make(n);
  return q;
}
`
	m, err := Compile("malloc", src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FuncByName("make2")
	var mal *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpMalloc {
			mal = in
		}
		return true
	})
	if mal == nil {
		t.Fatal("no malloc emitted")
	}
	if mal.Typ.String() != "i64**" {
		t.Errorf("malloc in make2 typed %s, want i64**", mal.Typ)
	}
}

func TestCompilePointerArith(t *testing.T) {
	src := `
int walk(int *p, int n) {
  int *q = p + n;
  int s = 0;
  while (p < q) {
    s += *p;
    p++;
  }
  return s;
}
`
	m, err := Compile("ptr", src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FuncByName("walk")
	if err := ssa.VerifySSA(f); err != nil {
		t.Fatalf("ssa: %v", err)
	}
	// p++ must lower to gep p, 1 feeding a phi.
	found := false
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpGEP {
			if c, ok := in.Args[1].(*ir.Const); ok && c.Val == 1 {
				found = true
			}
		}
		return true
	})
	if !found {
		t.Errorf("no gep +1 for p++:\n%s", f)
	}
}

func TestCompileLogicalOps(t *testing.T) {
	src := `
int clamp(int x, int lo, int hi) {
  if (x < lo || x > hi) {
    return 0;
  }
  if (x >= lo && x <= hi && x != 13) {
    return x;
  }
  return 13;
}

int toflag(int a, int b) {
  int f = (a < b);
  return f && a;
}
`
	m, err := Compile("logic", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Funcs {
		if err := ssa.VerifySSA(f); err != nil {
			t.Errorf("%s: %v", f.FName, err)
		}
	}
}

func TestCompileDoWhileBreakContinue(t *testing.T) {
	src := `
int f(int n) {
  int i = 0;
  int s = 0;
  do {
    i++;
    if (i == 3) continue;
    if (i > n) break;
    s += i;
  } while (i < 100);
  return s;
}
`
	m, err := Compile("dw", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ssa.VerifySSA(m.FuncByName("f")); err != nil {
		t.Fatal(err)
	}
}

func TestCompileCalls(t *testing.T) {
	src := `
int helper(int x) { return x + 1; }

int main() {
  int a = helper(41);
  int b = unknown_fn(a, 2);
  return a + b;
}
`
	m, err := Compile("calls", src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FuncByName("main")
	var internal, external *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpCall {
			if in.Callee() != nil {
				internal = in
			} else {
				external = in
			}
		}
		return true
	})
	if internal == nil || internal.Callee().FName != "helper" {
		t.Error("internal call not resolved")
	}
	if external == nil || external.CalleeName() != "unknown_fn" {
		t.Error("external call not kept")
	}
}

func TestCompileNestedPointers(t *testing.T) {
	src := `
int deep(int ***r) {
  int **q = *r;
  int *p = *q;
  return *p;
}
`
	m, err := Compile("deep", src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FuncByName("deep")
	loads := 0
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpLoad {
			loads++
		}
		return true
	})
	if loads != 3 {
		t.Errorf("loads = %d, want 3 (one per deref):\n%s", loads, f)
	}
}

func TestCompileAddressOf(t *testing.T) {
	src := `
void set(int *p) { *p = 5; }

int main() {
  int x = 1;
  set(&x);
  return x;
}
`
	m, err := Compile("addr", src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FuncByName("main")
	// x's address escapes: the alloca must survive promotion.
	n := 0
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpAlloca {
			n++
		}
		return true
	})
	if n != 1 {
		t.Errorf("allocas = %d, want 1 (x escapes)", n)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"undefined var", "int f() { return x; }", "undefined variable"},
		{"redeclared", "int f() { int x; int x; return 0; }", "redeclared"},
		{"deref int", "int f(int x) { return *x; }", "dereference"},
		{"assign array", "int f() { int a[3]; int b[3]; a = b; return 0; }", "not assignable"},
		{"break outside", "int f() { break; return 0; }", "break outside loop"},
		{"ptr plus ptr", "int f(int *p, int *q) { return *(p + q); }", "two pointers"},
		{"bad assign", "int f(int *p) { int x; x = p; return x; }", "cannot assign"},
		{"void var", "int f() { void v; return 0; }", "void is not a variable type"},
		{"redefined func", "int f() { return 0; } int f() { return 1; }", "redefined"},
		{"continue outside", "int f() { continue; return 0; }", "continue outside loop"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.name, c.src)
			if err == nil {
				t.Fatalf("compile succeeded, want error %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestCompileDeadCodeAfterReturn(t *testing.T) {
	src := `
int f(int x) {
  return x;
  x = x + 1;
  return x;
}
`
	m, err := Compile("dead", src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FuncByName("f")
	if len(f.Blocks) != 1 {
		t.Errorf("dead code not removed: %d blocks", len(f.Blocks))
	}
}

func TestCompileNullPointer(t *testing.T) {
	src := `
int f(int n) {
  int *p = 0;
  if (n > 0) {
    p = malloc(8 * n);
  }
  if (p != 0) {
    return *p;
  }
  return -1;
}
`
	m, err := Compile("null", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ssa.VerifySSA(m.FuncByName("f")); err != nil {
		t.Fatal(err)
	}
}

func TestCompileShiftAssign(t *testing.T) {
	src := `
int f(int x) {
  x <<= 2;
  x >>= 1;
  return x;
}
`
	m, err := Compile("sh", src)
	if err != nil {
		t.Fatal(err)
	}
	shl, shr := 0, 0
	m.FuncByName("f").Instrs(func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpShl:
			shl++
		case ir.OpShr:
			shr++
		}
		return true
	})
	if shl != 1 || shr != 1 {
		t.Errorf("shl=%d shr=%d, want 1 each", shl, shr)
	}
}
