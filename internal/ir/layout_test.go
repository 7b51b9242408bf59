package ir_test

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/corpus"
	"repro/internal/csmith"
	"repro/internal/essa"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/rangeanal"
	"repro/internal/ssa"
	"repro/internal/synth"
)

// TestInstrSize pins the instruction layout: at most 112 bytes with
// its 4-byte value id, so an Instr stays in the 112-byte size class,
// and a payload only on the opcodes that need one. The second half
// walks corpus, synth and csmith programs after lowering, after
// mem2reg and sigmas, and after subtraction splitting: an alloca
// carries a payload exactly when it allocates other than one element,
// a call, a phi with incoming edges, a sigma and a split copy always
// do, and nothing else does.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(ir.Instr{}); got > 112 {
		t.Fatalf("unsafe.Sizeof(ir.Instr{}) = %d, want <= 112", got)
	}
	srcs := map[string]string{"synth-200-1": synth.Module(200, 1)}
	for _, p := range append(corpus.Spec(), corpus.TestSuite(20)...) {
		srcs[p.Name] = p.Source
	}
	for seed := int64(1); seed <= 20; seed++ {
		srcs[fmt.Sprintf("csmith-%d", seed)] = csmith.Generate(csmith.Config{Seed: seed, MaxPtrDepth: 2 + int(seed%4)})
	}
	var instrs, payloads int
	check := func(name, stage string, m *ir.Module) {
		for _, f := range m.Funcs {
			f.Instrs(func(in *ir.Instr) bool {
				instrs++
				var want bool
				switch in.Op {
				case ir.OpAlloca:
					want = in.NumElems() != 1
				case ir.OpCall, ir.OpSigma:
					want = true
				case ir.OpPhi:
					want = len(in.Args) > 0
				case ir.OpCopy:
					want = in.SubUser() != nil
				}
				if got := ir.HasPayload(in); got != want {
					t.Errorf("%s %s @%s: %s: payload %v, want %v", name, stage, f.FName, in, got, want)
					return false
				}
				if want {
					payloads++
				}
				return true
			})
		}
	}
	for name, src := range srcs {
		prog, err := minic.ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := minic.LowerProgram(name, prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, "lowered", m)
		for _, f := range m.Funcs {
			ssa.Promote(f)
			essa.InsertSigmas(f)
		}
		check(name, "sigmas", m)
		pre := rangeanal.Analyze(m)
		for _, f := range m.Funcs {
			essa.SplitSubtractions(f, pre)
		}
		check(name, "split", m)
		if t.Failed() {
			return
		}
	}
	t.Logf("%d bytes per instruction; %d of %d instructions carry a payload", unsafe.Sizeof(ir.Instr{}), payloads, instrs)
}
