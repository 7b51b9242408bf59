package ir_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/essa"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/rangeanal"
	"repro/internal/ssa"
)

// denseIDs fails unless f's parameters and instructions hold exactly
// the ids 0 to NumValues()-1, parameters first and instructions in
// block order.
func denseIDs(t *testing.T, stage string, f *ir.Func) {
	t.Helper()
	next := 0
	for _, p := range f.Params {
		if p.ID() != next {
			t.Fatalf("%s @%s: parameter %s has id %d, want %d", stage, f.FName, p.Ref(), p.ID(), next)
		}
		next++
	}
	f.Instrs(func(in *ir.Instr) bool {
		if in.ID() != next {
			t.Fatalf("%s @%s: %s has id %d, want %d", stage, f.FName, in, in.ID(), next)
		}
		next++
		return true
	})
	if f.NumValues() != next {
		t.Fatalf("%s @%s: NumValues() = %d, want %d", stage, f.FName, f.NumValues(), next)
	}
}

// liveIDs returns the ids of f's parameters and instructions, failing
// on a duplicate or an id outside [0, NumValues()).
func liveIDs(t *testing.T, f *ir.Func) map[int]bool {
	t.Helper()
	ids := map[int]bool{}
	add := func(id int, what string) {
		if id < 0 || id >= f.NumValues() || ids[id] {
			t.Fatalf("@%s: %s has id %d: duplicate or outside [0, %d)", f.FName, what, id, f.NumValues())
		}
		ids[id] = true
	}
	for _, p := range f.Params {
		add(p.ID(), p.Ref())
	}
	f.Instrs(func(in *ir.Instr) bool {
		add(in.ID(), in.String())
		return true
	})
	return ids
}

// TestValueIDs: ids are dense after parsing, building and mem2reg; a
// deleted instruction leaves a hole that nothing reuses; sigmas and
// split copies take fresh ids; an instruction keeps its id when it
// moves within its function and takes a fresh one in another.
func TestValueIDs(t *testing.T) {
	m := ir.MustParse(`func @f(i64 %n, i64* %p) i64 {
entry:
  %c = icmp lt %n, 10
  br %c, a, b
a:
  %x = add %n, 1
  jmp b
b:
  %r = phi i64 [%x, a], [0, entry]
  ret %r
}
`)
	denseIDs(t, "parsed", m.Funcs[0])

	bm := ir.NewModule("built")
	bf := bm.AddFunc("g", ir.I64, []string{"x"}, []ir.Type{ir.I64})
	bld := ir.NewBuilder(bf)
	entry, exit := bf.NewBlock("entry"), bf.NewBlock("exit")
	bld.SetBlock(entry)
	slot := bld.Alloca(ir.I64, 1)
	bld.Store(bf.Params[0], slot)
	bld.Jmp(exit)
	bld.SetBlock(exit)
	bld.Ret(bld.Load(slot))
	// A phi goes in at the block head, ahead of older instructions, so
	// ids follow creation, not block order.
	phi := bld.Phi(ir.I64)
	ir.AddIncoming(phi, bf.Params[0], entry)
	if want := bf.NumValues() - 1; phi.ID() != want {
		t.Fatalf("builder phi has id %d, want the newest, %d", phi.ID(), want)
	}
	if ids := liveIDs(t, bf); len(ids) != bf.NumValues() {
		t.Fatalf("built @g holds %d ids of %d", len(ids), bf.NumValues())
	}

	for _, p := range corpus.Spec()[:4] {
		prog, err := minic.ParseProgram(p.Source)
		if err != nil {
			t.Fatal(err)
		}
		lm, err := minic.LowerProgram(p.Name, prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range lm.Funcs {
			liveIDs(t, f)
			ssa.Promote(f)
			denseIDs(t, p.Name+" after Promote", f)
			before := f.NumValues()
			if n := essa.InsertSigmas(f); n > 0 {
				fresh := 0
				f.Instrs(func(in *ir.Instr) bool {
					if in.Op == ir.OpSigma {
						if in.ID() < before {
							t.Fatalf("%s @%s: sigma %s has old id %d < %d", p.Name, f.FName, in, in.ID(), before)
						}
						fresh++
					}
					return true
				})
				if fresh != n {
					t.Fatalf("%s @%s: %d sigmas, InsertSigmas reports %d", p.Name, f.FName, fresh, n)
				}
			}
			liveIDs(t, f)
		}
		pre := rangeanal.Analyze(lm)
		for _, f := range lm.Funcs {
			before := f.NumValues()
			essa.SplitSubtractions(f, pre)
			f.Instrs(func(in *ir.Instr) bool {
				if in.Op == ir.OpCopy && in.ID() < before {
					t.Fatalf("%s @%s: copy %s has old id %d < %d", p.Name, f.FName, in, in.ID(), before)
				}
				return true
			})
			liveIDs(t, f)
			if err := ir.VerifyFunc(f); err != nil {
				t.Fatalf("%s @%s: %v", p.Name, f.FName, err)
			}
		}
	}

	// A deletion leaves a hole; the next instruction takes a new id.
	f := ir.MustParse(`func @h(i64 %n) i64 {
entry:
  %a = add %n, 1
  %b = add %n, 2
  ret %b
}
`).Funcs[0]
	entry = f.Entry()
	hole := entry.Instrs[0].ID()
	entry.RemoveAt(0)
	n := f.NumValues()
	if ids := liveIDs(t, f); ids[hole] {
		t.Fatalf("deleted id %d still live", hole)
	}
	c := &ir.Instr{Op: ir.OpAdd, Typ: ir.I64, Args: []ir.Value{f.Params[0], ir.ConstInt(3)}}
	c.SetName("c")
	entry.Insert(0, c)
	if c.ID() != n || f.NumValues() != n+1 {
		t.Fatalf("new instruction has id %d (NumValues %d), want %d (%d)", c.ID(), f.NumValues(), n, n+1)
	}
	if err := ir.VerifyFunc(f); err != nil {
		t.Fatal(err)
	}

	// Moving within the function keeps the id; joining another
	// function takes a fresh one there.
	other := f.NewBlock("other")
	moved := entry.Instrs[0]
	entry.RemoveAt(0)
	other.Append(moved)
	if moved.ID() != n {
		t.Fatalf("moved instruction has id %d, want %d", moved.ID(), n)
	}
	g := m.Funcs[0]
	gb := g.Entry()
	other.RemoveAt(0)
	gn := g.NumValues()
	gb.Insert(0, moved)
	if moved.ID() != gn {
		t.Fatalf("instruction moved to @%s has id %d, want %d", g.FName, moved.ID(), gn)
	}
}
