// Partition: the paper's Figure 1(b), where the ordering fact comes
// from a conditional branch rather than loop structure.
//
// In Hoare's partition kernel the indices i and j sweep toward each
// other; the guard `if (i >= j) break;` means i < j holds on the path
// that performs the swap. The e-SSA construction splits the live
// ranges of i and j at that branch, and the sigma constraint of rule
// 5 (Figure 7) places the false-edge name of i into LT of the false-
// edge name of j. This example makes that chain of reasoning visible:
// it prints the sigma nodes, their LT sets, and the alias verdicts
// for the swap's accesses. Polly-style relational analyses handle
// Figure 1(a) but not this kernel — the paper's Section 5 explains
// why; here the verdicts show the LT analysis handles both.
//
// Run with: go run ./examples/partition
package main

import (
	"fmt"
	"strings"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/minic"
)

const src = `
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

func main() {
	m, err := minic.Compile("partition", src)
	if err != nil {
		panic(err)
	}
	fmt.Println("=== Figure 1(b): partition ===")
	fmt.Print(src)

	prep := core.Prepare(m, core.PipelineOptions{})
	f := m.FuncByName("partition")

	// The break check lowers to icmp ge; its false edge carries i < j.
	var iSig, jSig *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpSigma && !in.OnTrue && in.Cmp().Pred == ir.CmpGE {
			if in.CmpSide == 0 {
				iSig = in
			} else {
				jSig = in
			}
		}
		return true
	})
	if iSig == nil || jSig == nil {
		panic("sigma pair for the break check not found")
	}
	fmt.Println("\ne-SSA split at `if (i >= j) break`:")
	fmt.Printf("  false edge defines %s (new name of i) and %s (new name of j)\n",
		iSig.Ref(), jSig.Ref())
	show := func(v ir.Value) {
		set := prep.LT.LT(v)
		var names []string
		for _, w := range set {
			names = append(names, w.Ref())
		}
		fmt.Printf("  LT(%s) = {%s}\n", v.Ref(), strings.Join(names, ", "))
	}
	show(iSig)
	show(jSig)
	fmt.Printf("  => %s < %s on the swap path: proven=%v\n",
		iSig.Ref(), jSig.Ref(), prep.LT.LessThan(iSig, jSig))

	// The swap's accesses use the split names; show the verdicts.
	ba := alias.NewBasic(m)
	lt := alias.NewSRAA(prep.LT)
	fmt.Println("\nalias verdicts for the swap's v[i]/v[j] accesses:")
	var swapGeps []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op != ir.OpGEP {
			return true
		}
		if s, ok := in.Args[1].(*ir.Instr); ok && s.Op == ir.OpSigma &&
			!s.OnTrue && s.Cmp().Pred == ir.CmpGE {
			swapGeps = append(swapGeps, in)
		}
		return true
	})
	for i := 0; i < len(swapGeps); i++ {
		for j := i + 1; j < len(swapGeps); j++ {
			gi, gj := swapGeps[i], swapGeps[j]
			if gi.Args[1] == gj.Args[1] {
				continue
			}
			fmt.Printf("  v[%-14s] vs v[%-14s]:  BA=%-8s  LT=%s\n",
				gi.Args[1].Ref(), gj.Args[1].Ref(),
				ba.Alias(alias.Loc(gi), alias.Loc(gj)),
				lt.Alias(alias.Loc(gi), alias.Loc(gj)))
		}
	}
	fmt.Println("\nthe ranges of i and j overlap across iterations, so range-")
	fmt.Println("based disambiguation fails here; the strict inequality from")
	fmt.Println("the branch is exactly what separates the two accesses.")
}
