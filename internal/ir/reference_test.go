package ir_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/csmith"
	"repro/internal/essa"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/rangeanal"
	"repro/internal/ssa"
	"repro/internal/synth"
)

// The reference printer is the fmt-based printer the append printer
// replaced, kept as a test-only oracle. It formats types and constants
// itself, so it shares no code with the printer it checks: any byte
// the two disagree on is a change to the textual format, and with it
// to every memo key and pinned hash.

func refModule(m *ir.Module) string {
	var sb strings.Builder
	if m.Name != "" {
		fmt.Fprintf(&sb, "module %q\n\n", m.Name)
	}
	for _, g := range m.Globals {
		fmt.Fprintf(&sb, "global @%s %s\n", g.GName, refType(g.Elem))
	}
	if len(m.Globals) > 0 {
		sb.WriteByte('\n')
	}
	for i, f := range m.Funcs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(refFunc(f))
	}
	return sb.String()
}

func refFunc(f *ir.Func) string {
	var sb strings.Builder
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		params[i] = fmt.Sprintf("%s %%%s", refType(p.Typ), p.PName)
	}
	fmt.Fprintf(&sb, "func @%s(%s) %s {\n",
		f.FName, strings.Join(params, ", "), refType(f.RetTyp))
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Name())
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", refInstr(in))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func refInstr(in *ir.Instr) string {
	var sb strings.Builder
	if in.HasResult() {
		fmt.Fprintf(&sb, "%%%s = ", in.Name())
	}
	switch in.Op {
	case ir.OpAlloca:
		fmt.Fprintf(&sb, "alloca %s, %d", refType(in.AllocTyp()), in.NumElems())
	case ir.OpMalloc:
		pt := in.Typ.(*ir.PtrType)
		fmt.Fprintf(&sb, "malloc %s, %s", refType(pt.Elem), refOperand(in.Args[0]))
	case ir.OpLoad:
		fmt.Fprintf(&sb, "load %s", refOperand(in.Args[0]))
	case ir.OpStore:
		fmt.Fprintf(&sb, "store %s, %s", refOperand(in.Args[0]), refOperand(in.Args[1]))
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
		fmt.Fprintf(&sb, "%s %s, %s", in.Op, refOperand(in.Args[0]), refOperand(in.Args[1]))
	case ir.OpICmp:
		fmt.Fprintf(&sb, "icmp %s %s, %s", in.Pred, refOperand(in.Args[0]), refOperand(in.Args[1]))
	case ir.OpGEP:
		fmt.Fprintf(&sb, "gep %s, %s", refOperand(in.Args[0]), refOperand(in.Args[1]))
	case ir.OpPhi:
		fmt.Fprintf(&sb, "phi %s", refType(in.Typ))
		for i, a := range in.Args {
			fmt.Fprintf(&sb, " [%s, %s]", refOperand(a), in.PhiBlocks()[i].Name())
			if i < len(in.Args)-1 {
				sb.WriteByte(',')
			}
		}
	case ir.OpSigma:
		branch := "false"
		if in.OnTrue {
			branch = "true"
		}
		side := "left"
		if in.CmpSide == 1 {
			side = "right"
		}
		fmt.Fprintf(&sb, "sigma %s, cmp %s, %s, %s", refOperand(in.Args[0]), refOperand(in.Cmp()), branch, side)
	case ir.OpCopy:
		fmt.Fprintf(&sb, "copy %s", refOperand(in.Args[0]))
		if in.SubUser() != nil {
			fmt.Fprintf(&sb, ", sub %s", refOperand(in.SubUser()))
		}
	case ir.OpCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = refOperand(a)
		}
		fmt.Fprintf(&sb, "call %s @%s(%s)", refType(in.Typ), in.CalleeName(), strings.Join(args, ", "))
	case ir.OpBr:
		fmt.Fprintf(&sb, "br %s, %s, %s", refOperand(in.Args[0]), in.Succs[0].Name(), in.Succs[1].Name())
	case ir.OpJmp:
		fmt.Fprintf(&sb, "jmp %s", in.Succs[0].Name())
	case ir.OpRet:
		if len(in.Args) > 0 {
			fmt.Fprintf(&sb, "ret %s", refOperand(in.Args[0]))
		} else {
			sb.WriteString("ret")
		}
	default:
		fmt.Fprintf(&sb, "<bad op %d>", int(in.Op))
	}
	if in.Line > 0 {
		fmt.Fprintf(&sb, " !line %d", in.Line)
	}
	return sb.String()
}

// refOperand renders an operand. Constants are formatted here; the
// other values are a sigil and a name.
func refOperand(v ir.Value) string {
	switch v := v.(type) {
	case *ir.Const:
		return fmt.Sprintf("%d", v.Val)
	case *ir.Undef:
		return "undef"
	case *ir.Global:
		return "@" + v.GName
	case *ir.Param:
		return "%" + v.PName
	case *ir.Instr:
		return "%" + v.Name()
	}
	panic(fmt.Sprintf("refOperand: unknown value %T", v))
}

// refType renders a type the way the fmt printer's String methods
// did; a missing type prints as fmt printed a nil Stringer operand.
func refType(t ir.Type) string {
	switch t := t.(type) {
	case nil:
		return fmt.Sprintf("%s", any(nil))
	case *ir.IntType:
		return fmt.Sprintf("i%d", t.Bits)
	case *ir.PtrType:
		return refType(t.Elem) + "*"
	case *ir.ArrayType:
		return fmt.Sprintf("[%d x %s]", t.Len, refType(t.Elem))
	case *ir.VoidType:
		return "void"
	case *ir.FuncType:
		parts := make([]string, len(t.Params))
		for i, p := range t.Params {
			parts[i] = refType(p)
		}
		return fmt.Sprintf("%s(%s)", refType(t.Ret), strings.Join(parts, ", "))
	}
	panic(fmt.Sprintf("refType: unknown type %T", t))
}

// checkPrint compares the printer with the reference on m: the module
// text, each function's text (which must be the module text's next
// function, so the reference runs once) and each signature. It returns
// the number of functions compared.
func checkPrint(t *testing.T, name string, m *ir.Module) int {
	t.Helper()
	want := refModule(m)
	if got := m.String(); got != want {
		t.Errorf("%s: module text differs from the reference:\n%s", name, firstDiff(got, want))
		return 0
	}
	off := strings.Index(want, "func @")
	for _, f := range m.Funcs {
		got := f.String()
		if off < 0 || !strings.HasPrefix(want[off:], got) {
			t.Errorf("%s: @%s differs from its text in the module:\n%s", name, f.FName, firstDiff(got, want[max(off, 0):]))
			return 0
		}
		off += len(got) + 1
		if got, want := f.Signature().String(), refType(f.Signature()); got != want {
			t.Errorf("%s: @%s signature %q, reference %q", name, f.FName, got, want)
		}
	}
	return len(m.Funcs)
}

// firstDiff shows the first line on which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}

// TestPrintMatchesReference checks the printer against the reference
// on the inputs the memo key and the frontend pins see: corpus Spec,
// TestSuite(200), synth.Module(2000, 1 and 2) and csmith seeds 1–300,
// each printed after lowering and after mem2reg and e-SSA (sigmas,
// ranges, subtraction splits). -short and -race run a smaller
// selection.
func TestPrintMatchesReference(t *testing.T) {
	progs := append(corpus.Spec(), corpus.TestSuite(200)...)
	synthFuncs, seeds := 2000, int64(300)
	if testing.Short() || raceEnabled {
		progs = append(corpus.Spec()[:8], corpus.TestSuite(8)...)
		synthFuncs, seeds = 200, 30
	}
	type input struct{ name, src string }
	var inputs []input
	for _, p := range progs {
		inputs = append(inputs, input{p.Name, p.Source})
	}
	for _, s := range []int64{1, 2} {
		inputs = append(inputs, input{fmt.Sprintf("synth-%d-%d", synthFuncs, s), synth.Module(synthFuncs, s)})
	}
	for seed := int64(1); seed <= seeds; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("csmith-%d", seed),
			csmith.Generate(csmith.Config{Seed: seed, MaxPtrDepth: 2 + int(seed%4)})})
	}
	funcs := 0
	for _, in := range inputs {
		prog, err := minic.ParseProgram(in.src)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		m, err := minic.LowerProgram(in.name, prog)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		funcs += checkPrint(t, in.name+" lowered", m)
		for _, f := range m.Funcs {
			ssa.Promote(f)
			essa.InsertSigmas(f)
		}
		pre := rangeanal.Analyze(m)
		for _, f := range m.Funcs {
			essa.SplitSubtractions(f, pre)
		}
		funcs += checkPrint(t, in.name+" e-SSA", m)
		if t.Failed() {
			return
		}
	}
	t.Logf("%d inputs, %d function texts identical to the reference", len(inputs), funcs)
}

// TestPrintMatchesReferenceEdgeCases covers what no frontend emits: a
// module name needing escapes, extreme constants and widths, undef,
// nested array and pointer types, an unknown opcode and predicate,
// and missing types.
func TestPrintMatchesReferenceEdgeCases(t *testing.T) {
	m := ir.NewModule("esc \"q\" \\ \x00 é \xff")
	g := m.AddGlobal("g", ir.ArrayOf(3, ir.Ptr(ir.ArrayOf(-2, ir.I8))))
	m.AddGlobal("nil", nil)
	f := m.AddFunc("f", ir.Ptr(ir.I1), []string{"x", "y"}, []ir.Type{&ir.IntType{Bits: -7}, nil})
	b := ir.NewBuilder(f)
	entry, next := f.NewBlock("entry"), f.NewBlock("next")
	b.SetBlock(entry)
	lo := &ir.Const{Val: math.MinInt64, Typ: ir.I64}
	hi := &ir.Const{Val: math.MaxInt64, Typ: ir.I64}
	b.SetLine(math.MaxInt32)
	sum := b.Bin(ir.OpShr, lo, hi)
	b.SetLine(0)
	cmp := b.ICmp(ir.CmpPred(99), sum, &ir.Undef{Typ: ir.I64})
	p := b.GEP(g, ir.ConstInt(-1))
	b.Store(sum, p)
	b.Load(b.Alloca(ir.ArrayOf(4, ir.I32), 4))
	b.Malloc(ir.Ptr(ir.I8), ir.ConstInt(16))
	b.CallExt("ext", ir.Void, sum, cmp, g, f.Params[0])
	entry.Append(&ir.Instr{Op: ir.Op(77), Typ: ir.Void, Blk: entry})
	b.Br(cmp, next, next)
	b.SetBlock(next)
	phi := b.Phi(ir.I64)
	ir.AddIncoming(phi, sum, entry)
	ir.AddIncoming(phi, ir.ConstInt(0), entry)
	sig := ir.NewSigma(phi, cmp, true, 1)
	sig.SetName("s")
	next.Append(sig)
	sub := b.Bin(ir.OpSub, sig, ir.ConstInt(1))
	cp := ir.NewCopy(sub, sub)
	cp.SetName("c")
	next.Append(cp)
	b.Ret(nil)
	checkPrint(t, "edge", m)
	if got, want := lo.Name(), fmt.Sprintf("%d", lo.Val); got != want {
		t.Errorf("Const.Name = %q, want %q", got, want)
	}
	for _, ty := range []ir.Type{ir.Void, ir.Ptr(ir.Ptr(ir.I32)), ir.ArrayOf(0, ir.Void),
		&ir.FuncType{Params: []ir.Type{ir.I64, ir.Ptr(ir.I8)}, Ret: ir.Void},
		&ir.FuncType{Ret: nil}} {
		if got, want := ty.String(), refType(ty); got != want {
			t.Errorf("type %q, reference %q", got, want)
		}
	}
}
