package ir

import (
	"strings"
	"testing"
)

// buildFunc assembles a single-block function from raw instructions,
// bypassing the Builder's own panics so the verifier's rejections can
// be exercised directly.
func buildFunc(t *testing.T, mk func(f *Func, b *Block)) *Func {
	t.Helper()
	m := NewModule("t")
	f := m.AddFunc("f", I64, []string{"a", "p"}, []Type{I64, Ptr(I64)})
	b := f.NewBlock("entry")
	mk(f, b)
	for _, in := range b.Instrs {
		if in.HasResult() && in.Name() == "" {
			in.SetName(f.FreshName("t"))
		}
	}
	return f
}

// TestVerifyTypeAgreement drives the verifier's type-agreement checks:
// store value vs. pointee, icmp operand agreement, and gep base
// pointer-ness, each with the accepted idioms alongside the
// rejections.
func TestVerifyTypeAgreement(t *testing.T) {
	i64p := Ptr(I64)
	cases := []struct {
		name    string
		wantSub string // empty = must verify
		mk      func(f *Func, b *Block)
	}{
		{
			"store int into int cell ok", "",
			func(f *Func, b *Block) {
				a := &Instr{Op: OpAlloca, Typ: i64p, AllocTyp: I64, NumElems: 1}
				b.Append(a)
				b.Append(&Instr{Op: OpStore, Typ: Void, Args: []Value{ConstInt(1), a}})
				b.Append(&Instr{Op: OpRet, Typ: Void, Args: []Value{ConstInt(0)}})
			},
		},
		{
			"store pointer into int cell rejected", "store value type",
			func(f *Func, b *Block) {
				a := &Instr{Op: OpAlloca, Typ: i64p, AllocTyp: I64, NumElems: 1}
				b.Append(a)
				b.Append(&Instr{Op: OpStore, Typ: Void, Args: []Value{f.Params[1], a}})
				b.Append(&Instr{Op: OpRet, Typ: Void, Args: []Value{ConstInt(0)}})
			},
		},
		{
			"store int into pointer cell rejected", "store value type",
			func(f *Func, b *Block) {
				a := &Instr{Op: OpAlloca, Typ: Ptr(i64p), AllocTyp: i64p, NumElems: 1}
				b.Append(a)
				b.Append(&Instr{Op: OpStore, Typ: Void, Args: []Value{ConstInt(7), a}})
				b.Append(&Instr{Op: OpRet, Typ: Void, Args: []Value{ConstInt(0)}})
			},
		},
		{
			"store null into pointer cell ok", "",
			func(f *Func, b *Block) {
				a := &Instr{Op: OpAlloca, Typ: Ptr(i64p), AllocTyp: i64p, NumElems: 1}
				b.Append(a)
				b.Append(&Instr{Op: OpStore, Typ: Void, Args: []Value{ConstInt(0), a}})
				b.Append(&Instr{Op: OpRet, Typ: Void, Args: []Value{ConstInt(0)}})
			},
		},
		{
			"icmp int widths disagree rejected", "icmp operand types disagree",
			func(f *Func, b *Block) {
				c := &Instr{Op: OpICmp, Typ: I1, Pred: CmpEQ,
					Args: []Value{f.Params[0], &Const{Val: 1, Typ: I1}}}
				b.Append(c)
				b.Append(&Instr{Op: OpRet, Typ: Void, Args: []Value{ConstInt(0)}})
			},
		},
		{
			"icmp pointer vs int variable rejected", "icmp operand types disagree",
			func(f *Func, b *Block) {
				c := &Instr{Op: OpICmp, Typ: I1, Pred: CmpLT,
					Args: []Value{f.Params[1], f.Params[0]}}
				b.Append(c)
				b.Append(&Instr{Op: OpRet, Typ: Void, Args: []Value{ConstInt(0)}})
			},
		},
		{
			"icmp pointer vs null const ok", "",
			func(f *Func, b *Block) {
				c := &Instr{Op: OpICmp, Typ: I1, Pred: CmpEQ,
					Args: []Value{f.Params[1], ConstInt(0)}}
				b.Append(c)
				b.Append(&Instr{Op: OpRet, Typ: Void, Args: []Value{ConstInt(0)}})
			},
		},
		{
			"icmp null const vs pointer ok (swapped)", "",
			func(f *Func, b *Block) {
				c := &Instr{Op: OpICmp, Typ: I1, Pred: CmpNE,
					Args: []Value{ConstInt(0), f.Params[1]}}
				b.Append(c)
				b.Append(&Instr{Op: OpRet, Typ: Void, Args: []Value{ConstInt(0)}})
			},
		},
		{
			"gep base non-pointer rejected", "gep base must be pointer",
			func(f *Func, b *Block) {
				g := &Instr{Op: OpGEP, Typ: i64p,
					Args: []Value{f.Params[0], ConstInt(1)}}
				b.Append(g)
				b.Append(&Instr{Op: OpRet, Typ: Void, Args: []Value{ConstInt(0)}})
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := buildFunc(t, c.mk)
			err := VerifyFunc(f)
			if c.wantSub == "" {
				if err != nil {
					t.Fatalf("verifier rejected well-typed function: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("verifier accepted ill-typed function")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

// TestStoreConstRetypeOnParse pins the parser's post-pass: stored
// constants are parsed before the pointer operand's type is known and
// must be retyped to the pointee, so the textual forms below stay
// accepted under the strict store check.
func TestStoreConstRetypeOnParse(t *testing.T) {
	m, err := Parse(`
func @f() i64 {
entry:
  %cell = alloca i64*, 1
  store 0, %cell
  %iv = alloca i64, 1
  store 42, %iv
  store undef, %cell
  ret 0
}
`)
	if err != nil {
		t.Fatalf("null/undef store idioms rejected: %v", err)
	}
	text := m.String()
	if _, err := Parse(text); err != nil {
		t.Fatalf("reprint not reparseable: %v\n%s", err, text)
	}
}

// TestLineRoundTrip checks the !line suffix: stamped lines survive
// print→parse→print, and instructions without a line print without a
// suffix.
func TestLineRoundTrip(t *testing.T) {
	m := NewModule("t")
	f := m.AddFunc("f", I64, []string{"a"}, []Type{I64})
	bld := NewBuilder(f)
	bld.SetBlock(f.NewBlock("entry"))
	bld.SetLine(3)
	x := bld.Add(f.Params[0], ConstInt(1))
	bld.SetLine(0)
	y := bld.Add(x, ConstInt(2))
	bld.SetLine(9)
	bld.Ret(y)

	text := m.String()
	if !strings.Contains(text, "add %a, 1 !line 3") {
		t.Errorf("line suffix missing:\n%s", text)
	}
	if strings.Contains(text, "add %t0, 2 !line") {
		t.Errorf("unstamped instruction grew a line suffix:\n%s", text)
	}
	m2, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.String(); got != text {
		t.Errorf("line round trip unstable:\n%s\nvs\n%s", text, got)
	}
	var lines []int
	m2.Funcs[0].Instrs(func(in *Instr) bool {
		lines = append(lines, in.Line)
		return true
	})
	want := []int{3, 0, 9}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("instr %d: Line = %d, want %d", i, lines[i], want[i])
		}
	}
}

// TestLineParseErrors covers the malformed !line forms.
func TestLineParseErrors(t *testing.T) {
	for _, c := range []struct{ name, src, wantSub string }{
		{"bang junk", "func @f() i64 {\nentry:\n  ret 0 !bogus 3\n}", "expected 'line'"},
		{"missing number", "func @f() i64 {\nentry:\n  ret 0 !line x\n}", "line number"},
		{"negative number", "func @f() i64 {\nentry:\n  ret 0 !line -4\n}", "line number"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatal("malformed !line accepted")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

// TestVerifyPhiIncoming: a phi must have one operand per predecessor
// and name only predecessors, including blocks that are not in the
// function at all.
func TestVerifyPhiIncoming(t *testing.T) {
	src := `func @f(i64 %a) i64 {
entry:
  %c = icmp lt %a, 0
  br %c, left, join
left:
  jmp join
join:
  %x = phi i64 [1, entry], [2, left]
  ret %x
}
`
	for _, tc := range []struct {
		name, wantSub string
		edit          func(f *Func, phi *Instr)
	}{
		{"well formed", "", func(f *Func, phi *Instr) {}},
		{"missing operand", "has 1 incoming, block has 2 preds", func(f *Func, phi *Instr) {
			phi.Args, phi.PhiBlocks = phi.Args[:1], phi.PhiBlocks[:1]
		}},
		{"non-predecessor", "names non-predecessor join", func(f *Func, phi *Instr) {
			phi.PhiBlocks[1] = f.Blocks[2]
		}},
		{"foreign block", "names non-predecessor elsewhere", func(f *Func, phi *Instr) {
			phi.PhiBlocks[1] = &Block{name: "elsewhere", Index: 1}
		}},
	} {
		f := MustParse(src).Funcs[0]
		phi := f.Blocks[2].Instrs[0]
		tc.edit(f, phi)
		err := VerifyFunc(f)
		switch {
		case tc.wantSub == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantSub != "" && (err == nil || !strings.Contains(err.Error(), tc.wantSub)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantSub)
		}
	}
}
