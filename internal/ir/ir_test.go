package ir

import (
	"strings"
	"testing"
)

func TestTypeString(t *testing.T) {
	cases := []struct {
		typ  Type
		want string
	}{
		{I64, "i64"},
		{I1, "i1"},
		{Ptr(I64), "i64*"},
		{Ptr(Ptr(I32)), "i32**"},
		{ArrayOf(10, I64), "[10 x i64]"},
		{Ptr(ArrayOf(4, I8)), "[4 x i8]*"},
		{Void, "void"},
	}
	for _, c := range cases {
		if got := c.typ.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	if !Equal(Ptr(I64), Ptr(&IntType{Bits: 64})) {
		t.Error("structurally equal pointer types compare unequal")
	}
	if Equal(Ptr(I64), Ptr(I32)) {
		t.Error("i64* equals i32*")
	}
	if Equal(ArrayOf(3, I64), ArrayOf(4, I64)) {
		t.Error("arrays of different length compare equal")
	}
	if !Equal(Void, Void) {
		t.Error("void not equal to itself")
	}
}

func TestTypeSize(t *testing.T) {
	if got := I64.SizeBytes(); got != 8 {
		t.Errorf("i64 size = %d, want 8", got)
	}
	if got := I1.SizeBytes(); got != 1 {
		t.Errorf("i1 size = %d, want 1", got)
	}
	if got := Ptr(I8).SizeBytes(); got != 8 {
		t.Errorf("pointer size = %d, want 8", got)
	}
	if got := ArrayOf(10, I32).SizeBytes(); got != 40 {
		t.Errorf("[10 x i32] size = %d, want 40", got)
	}
}

func TestPredHelpers(t *testing.T) {
	for _, p := range []CmpPred{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE} {
		if p.Negate().Negate() != p {
			t.Errorf("double negation of %s is not identity", p)
		}
		if p.Swap().Swap() != p {
			t.Errorf("double swap of %s is not identity", p)
		}
		for a := int64(-2); a <= 2; a++ {
			for b := int64(-2); b <= 2; b++ {
				if p.Eval(a, b) == p.Negate().Eval(a, b) {
					t.Errorf("%s and its negation agree on (%d,%d)", p, a, b)
				}
				if p.Eval(a, b) != p.Swap().Eval(b, a) {
					t.Errorf("%s swapped disagrees on (%d,%d)", p, a, b)
				}
			}
		}
	}
}

// buildLoop constructs, via the Builder, the canonical counted loop
//
//	for (i = 0; i < n; i++) v[i] = i;
func buildLoop(t *testing.T) *Module {
	t.Helper()
	m := NewModule("loop")
	f := m.AddFunc("fill", Void, []string{"v", "n"}, []Type{Ptr(I64), I64})
	entry := f.NewBlock("entry")
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")

	b := NewBuilder(f)
	b.SetBlock(entry)
	b.Jmp(head)

	b.SetBlock(head)
	i := b.Named("i").Phi(I64)
	c := b.ICmp(CmpLT, i, f.Params[1])
	b.Br(c, body, exit)

	b.SetBlock(body)
	p := b.GEP(f.Params[0], i)
	b.Store(i, p)
	i2 := b.Add(i, ConstInt(1))
	b.Jmp(head)

	AddIncoming(i, ConstInt(0), entry)
	AddIncoming(i, i2, body)

	b.SetBlock(exit)
	b.Ret(nil)

	f.RecomputeCFG()
	if err := Verify(m); err != nil {
		t.Fatalf("built module fails verification: %v", err)
	}
	return m
}

func TestBuilderLoop(t *testing.T) {
	m := buildLoop(t)
	f := m.FuncByName("fill")
	if f == nil {
		t.Fatal("function not found")
	}
	if got := len(f.Blocks); got != 4 {
		t.Fatalf("blocks = %d, want 4", got)
	}
	head := f.Blocks[1]
	if got := len(head.Preds); got != 2 {
		t.Fatalf("head preds = %d, want 2", got)
	}
	if got := len(head.Phis()); got != 1 {
		t.Fatalf("head phis = %d, want 1", got)
	}
	if got := f.NumInstrs(); got != 9 {
		t.Errorf("instrs = %d, want 9", got)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	m := buildLoop(t)
	text := m.String()
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\nsource:\n%s", err, text)
	}
	text2 := m2.String()
	if text != text2 {
		t.Errorf("round trip not stable:\nfirst:\n%s\nsecond:\n%s", text, text2)
	}
}

const sampleIR = `
module "sample"

global @g [16 x i64]

func @sum(i64* %v, i64 %n) i64 {
entry:
  jmp head
head:
  %i = phi i64 [0, entry], [%i2, body]
  %s = phi i64 [0, entry], [%s2, body]
  %c = icmp lt %i, %n
  br %c, body, exit
body:
  %p = gep %v, %i
  %x = load %p
  %s2 = add %s, %x
  %i2 = add %i, 1
  jmp head
exit:
  ret %s
}
`

func TestParseSample(t *testing.T) {
	m, err := Parse(sampleIR)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if m.Name != "sample" {
		t.Errorf("module name = %q", m.Name)
	}
	g := m.GlobalByName("g")
	if g == nil {
		t.Fatal("global @g missing")
	}
	if g.Type().String() != "[16 x i64]*" {
		t.Errorf("global type = %s", g.Type())
	}
	f := m.FuncByName("sum")
	if f == nil {
		t.Fatal("func @sum missing")
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(f.Blocks))
	}
	head := f.blockByName("head")
	if len(head.Phis()) != 2 {
		t.Fatalf("phis = %d, want 2", len(head.Phis()))
	}
	// The forward reference %i2 must have been resolved to the add.
	iPhi := head.Phis()[0]
	inc, ok := iPhi.Args[1].(*Instr)
	if !ok || inc.Op != OpAdd {
		t.Fatalf("phi incoming not resolved to add: %v", iPhi.Args[1])
	}
}

func TestParseCallAndMalloc(t *testing.T) {
	src := `
func @alloc(i64 %n) i64* {
entry:
  %sz = mul %n, 8
  %p = malloc i64, %sz
  ret %p
}

func @main() i64 {
entry:
  %p = call i64* @alloc(10)
  %q = call i64 @external(%p, 3)
  ret %q
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	main := m.FuncByName("main")
	var calls []*Instr
	main.Instrs(func(in *Instr) bool {
		if in.Op == OpCall {
			calls = append(calls, in)
		}
		return true
	})
	if len(calls) != 2 {
		t.Fatalf("calls = %d, want 2", len(calls))
	}
	if calls[0].Callee() == nil || calls[0].Callee().FName != "alloc" {
		t.Error("intra-module callee not resolved")
	}
	if calls[1].Callee() != nil {
		t.Error("external callee should stay unresolved")
	}
	if calls[1].CalleeName() != "external" {
		t.Errorf("external callee name = %q", calls[1].CalleeName())
	}
}

func TestParseSigmaCopy(t *testing.T) {
	src := `
func @f(i64 %a, i64 %b) i64 {
entry:
  %c = icmp lt %a, %b
  br %c, then, else
then:
  %at = sigma %a, cmp %c, true
  %x = sub %b, 1
  %b2 = copy %b, sub %x
  ret %at
else:
  %af = sigma %a, cmp %c, false
  ret %af
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := m.FuncByName("f")
	then := f.blockByName("then")
	sig := then.Instrs[0]
	if sig.Op != OpSigma || !sig.OnTrue || sig.Cmp() == nil {
		t.Fatalf("bad sigma: %s", sig)
	}
	cp := then.Instrs[2]
	if cp.Op != OpCopy || cp.SubUser() == nil || cp.SubUser().Op != OpSub {
		t.Fatalf("bad copy: %s", cp)
	}
	// Round trip must preserve sigma/copy annotations.
	m2, err := Parse(m.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if m.String() != m2.String() {
		t.Error("sigma/copy round trip unstable")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"undefined value", "func @f() i64 {\nentry:\n  ret %x\n}", "undefined value"},
		{"no terminator", "func @f() void {\nentry:\n  %p = alloca i64, 1\n}", "terminator"},
		{"bad opcode", "func @f() void {\nentry:\n  frob %x\n}", "unknown opcode"},
		{"terminator mid-block", "func @f() void {\nentry:\n  ret\n  ret\n}", "mid-block"},
		{"double definition", "func @f() void {\nentry:\n  %p = alloca i64, 1\n  %p = alloca i64, 1\n  ret\n}", "defined twice"},
		{"undefined global", "func @f() i64* {\nentry:\n  ret @nope\n}", "undefined global"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("parse succeeded, want error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestReplaceUses(t *testing.T) {
	m := buildLoop(t)
	f := m.FuncByName("fill")
	var add *Instr
	f.Instrs(func(in *Instr) bool {
		if in.Op == OpAdd {
			add = in
		}
		return true
	})
	old := add.Args[0]
	n := add.ReplaceUses(old, ConstInt(7))
	if n != 1 {
		t.Fatalf("ReplaceUses = %d, want 1", n)
	}
	c, ok := add.Args[0].(*Const)
	if !ok || c.Val != 7 {
		t.Fatalf("operand not replaced: %v", add.Args[0])
	}
}

func TestFreshNamesUnique(t *testing.T) {
	m := NewModule("x")
	f := m.AddFunc("f", Void, nil, nil)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		n := f.FreshName("t")
		if seen[n] {
			t.Fatalf("FreshName repeated %q", n)
		}
		seen[n] = true
	}
}

func TestBlockInsertRemove(t *testing.T) {
	m := NewModule("x")
	f := m.AddFunc("f", Void, nil, nil)
	b := f.NewBlock("entry")
	bld := NewBuilder(f)
	bld.SetBlock(b)
	a1 := bld.Alloca(I64, 1)
	bld.Ret(nil)
	cp := &Instr{Op: OpCopy, Typ: Ptr(I64), Args: []Value{a1}, name: "c"}
	b.Insert(1, cp)
	if b.Instrs[1] != cp {
		t.Fatal("Insert did not place instruction")
	}
	if cp.Blk != b {
		t.Fatal("Insert did not set parent")
	}
	b.RemoveAt(1)
	if len(b.Instrs) != 2 {
		t.Fatalf("RemoveAt left %d instrs", len(b.Instrs))
	}
}

func TestVerifyCatchesPhiMismatch(t *testing.T) {
	m := buildLoop(t)
	f := m.FuncByName("fill")
	phi := f.Blocks[1].Phis()[0]
	phi.Args = phi.Args[:1]
	phi.ext.blocks = phi.ext.blocks[:1]
	if err := Verify(m); err == nil {
		t.Error("verifier accepted phi with missing incoming edge")
	}
}

func TestIncoming(t *testing.T) {
	m := buildLoop(t)
	f := m.FuncByName("fill")
	entry, body := f.Blocks[0], f.Blocks[2]
	phi := f.Blocks[1].Phis()[0]
	v := phi.Incoming(entry)
	if c, ok := v.(*Const); !ok || c.Val != 0 {
		t.Errorf("Incoming(entry) = %v, want 0", v)
	}
	if phi.Incoming(body) == nil {
		t.Error("Incoming(body) = nil")
	}
	if phi.Incoming(f.Blocks[3]) != nil {
		t.Error("Incoming(exit) should be nil")
	}
}
