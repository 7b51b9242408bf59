// Package synth generates synthetic mini-C modules of a requested
// function count for benchmarks (cmd/sraaperf's batch-synth workload)
// and scale tests. The goal is
// not realism per function — csmith covers adversarial shapes — but
// realistic bulk: tens of thousands of small pointer-manipulating
// functions wired into call chains, so whole-module solver cost is
// dominated by the same work it would be on a large real program
// (constraint generation, unification or propagation across calls,
// per-function worklists).
//
// Generation is deterministic in (funcs, seed): the same arguments
// always produce byte-identical source, which benchmark comparisons
// rely on — a wall-clock diff between two builds is meaningless if the
// workload drifted.
package synth

import (
	"fmt"
	"math/rand"
	"strings"
)

// chainLen is the length of each call chain: function i calls i+1
// unless i+1 starts the next chain. Chains keep the call graph local
// so constraint propagation crosses function boundaries without
// creating one giant SCC.
const chainLen = 8

// mainFanout bounds how many chain heads main calls directly; heads
// beyond it have no in-module caller, exercising the unknown-pointer
// rules at scale.
const mainFanout = 64

// hubCohort groups functions around a shared global pointer slot:
// every second function in cohort c = i/hubCohort publishes its own
// allocation into hub<c> and reads the slot back. Each hub therefore
// accumulates a points-to set of ~hubCohort/2 sites that flows into
// every participating reader — the high-fanin pattern (global caches,
// function tables) where large programs spend their points-to solving
// time, and where set representation and delta propagation dominate
// cost. Cohort membership is bounded, so hub work scales linearly
// with module size for any solver that handles one hub well.
const hubCohort = 512

// Module returns a deterministic mini-C module with exactly funcs
// work functions (plus main).
func Module(funcs int, seed int64) string {
	if funcs < 1 {
		funcs = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// Pre-draw per-function shapes in index order so the output is
	// stable regardless of emission order.
	shapes := make([]int, funcs)
	for i := range shapes {
		shapes[i] = rng.Intn(4)
	}
	var sb strings.Builder
	sb.Grow(funcs * 400)
	sb.WriteString("/* synthetic module: generated by internal/synth */\n")
	for c := 0; c*hubCohort < funcs; c++ {
		fmt.Fprintf(&sb, "int *hub%d;\n", c)
	}
	// Emit highest index first so every callee is defined before its
	// caller.
	for i := funcs - 1; i >= 0; i-- {
		callee := -1
		if i+1 < funcs && (i+1)%chainLen != 0 {
			callee = i + 1
		}
		hub := -1
		if i%2 == 0 {
			hub = i / hubCohort
		}
		emitFunc(&sb, i, shapes[i], callee, hub)
	}
	sb.WriteString("\nint main(void) {\n")
	sb.WriteString("  int *seedp = malloc(8);\n  *seedp = 1;\n  int acc = 0;\n")
	for h := 0; h < funcs && h/chainLen < mainFanout; h += chainLen {
		fmt.Fprintf(&sb, "  acc = acc + w%d(seedp, %d);\n", h, h%7+2)
	}
	sb.WriteString("  return acc;\n}\n")
	return sb.String()
}

// emitFunc writes one work function. Every shape allocates, stores
// and loads through at least one level of indirection; the variants
// differ in how much merging (if/phi) and double indirection they
// add, so the module mixes easy and hard points-to flows. When hub is
// non-negative the function additionally publishes its allocation b
// into the cohort's global slot and reads the slot back.
func emitFunc(sb *strings.Builder, i, shape, callee, hub int) {
	call := "0"
	if callee >= 0 {
		call = fmt.Sprintf("w%d(b, x - 1)", callee)
	}
	hubBlock := ""
	if hub >= 0 {
		hubBlock = fmt.Sprintf("  hub%[1]d = b;\n  int *hb = hub%[1]d;\n  *hb = *hb + 1;\n", hub)
	}
	switch shape {
	case 0: // straight-line: two sites, one slot
		fmt.Fprintf(sb, `
int w%[1]d(int *p, int x) {
  int *a = malloc(8);
  int *b = malloc(8);
  int **s = malloc(8);
  *a = x;
  *b = x + 1;
  *s = a;
  int *c = *s;
  *c = *c + *p;
%[3]s  return *a + *b + %[2]s;
}
`, i, call, hubBlock)
	case 1: // merge: slot overwritten on one path
		fmt.Fprintf(sb, `
int w%[1]d(int *p, int x) {
  int *a = malloc(8);
  int *b = malloc(8);
  int **s = malloc(8);
  *s = a;
  if (x > 0) {
    *s = b;
  }
  int *c = *s;
  *a = *p;
  *c = *c + 1;
%[3]s  return *c + %[2]s;
}
`, i, call, hubBlock)
	case 2: // double indirection
		fmt.Fprintf(sb, `
int w%[1]d(int *p, int x) {
  int *a = malloc(8);
  int *b = malloc(8);
  int **s = malloc(8);
  int ***d = malloc(8);
  *s = a;
  *d = s;
  int **t = *d;
  *t = b;
  int *c = *s;
  *c = x + *p;
%[3]s  return *a + %[2]s;
}
`, i, call, hubBlock)
	default: // loop with pointer advance
		fmt.Fprintf(sb, `
int w%[1]d(int *p, int x) {
  int *a = malloc(32);
  int *b = malloc(8);
  int i;
  int acc = 0;
  for (i = 0; i < x; i++) {
    int *q = a + i;
    *q = i + *p;
    acc = acc + *q;
  }
  *b = acc;
%[3]s  return *b + %[2]s;
}
`, i, call, hubBlock)
	}
}
