package ssa_test

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/csmith"
	"repro/internal/essa"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/ssa"
	"repro/internal/synth"
)

// TestDifferentialPromote: Promote produces exactly the IR of the
// reference implementation — the same value names, phi order and phi
// operand order, the same number of distinct undefs, and the same name
// counter, which the sigma names of a later InsertSigmas expose. It
// checks the frontend's memory form (minic.LowerToMemory) and
// Eliminate→Promote round trips of the SSA form and of the e-SSA form,
// and holds minic.LowerProgram, which builds most locals in SSA form
// as it lowers, to the reference applied to the memory form.
func TestDifferentialPromote(t *testing.T) {
	progs := append(corpus.Spec(), corpus.TestSuite(100)...)
	seeds, funcs := int64(300), 2000
	if testing.Short() || raceEnabled {
		progs = append(corpus.Spec()[:8], corpus.TestSuite(8)...)
		seeds, funcs = 40, 300
	}
	type input struct{ name, src string }
	inputs := []input{
		// Reads before any store: each must get its own undef.
		{"uninit", `int f(int c) {
  int x, y, *p;
  if (c) { y = x + x; } else { p = p + 1; y = *p; }
  while (c < 3) { c = c + x; }
  return y + x;
}`},
		// Locals whose name appears under "&" are lowered to memory;
		// the construction at the end of the function promotes those
		// that do not escape after all.
		{"deref-addr", `int f(int c) {
  int x = c;
  if (c) { x = *&x + 1; } else { *&x = 2; }
  return *&x;
}`},
		{"bare-addr", `int f(int c) {
  int x = 1;
  &x;
  if (c) { x = x + 1; }
  return x;
}`},
		{"addr-after-return", `int f(int c) {
  int x = 1;
  while (c) { x = x + c; c = c - 1; }
  return x;
  int *p = &x;
  return *p;
}`},
		{"addr-param", `int g(int *p) { return *p; }
int f(int a, int b) {
  if (a < b) { a = g(&b); }
  return a + b;
}`},
		{"array-one", `int f(int c) {
  int a[1], b[1];
  *a = c;
  b[0] = c;
  while (c) { *a = *a + c; c = c - 1; }
  return *a + b[0];
}`},
		{"sibling-scopes", `int g(int *p) { return *p; }
int f(int c) {
  int s = 0;
  if (c) { int x = c; s = g(&x); x = x + 1; s = s + x; }
  else { int x = 2; while (c < x) { c = c + 1; } s = x; }
  { int y = 1, x = y; if (c) { x = 5; } s = s + x + y; }
  return s;
}`},
		{"do-return", `int g(int *p) { return *p; }
int f(int c) {
  int x = c;
  do { if (x) { x = x + 1; } return x; } while (g(&x));
  return 0;
}`},
		{"reads-before-stores", `int *g(int *q) { return q; }
int f(int c, int *q) {
  int i, *p, k;
  k = i + i;
  if (c) { p = g(q); } else { i = 3; }
  for (; i < c; i++) { k = k + *p + i; }
  while (c) { int j; k = k + j; j = c; c = c - j; }
  return k + i;
}`},
		// Locals declared in blocks out of block order: the else arm's
		// block comes after the join's, so b's alloca stands after d's
		// although b is declared first, and their phis are numbered in
		// that order.
		{"decl-order", `int f(int c) {
  if (c) { int a = 0; while (a < c) { a = a + 1; } c = a; }
  else { int b = 0; while (b < c) { b = b + 2; } c = b; }
  int d = 0;
  while (d < c) { d = d + 1; }
  return d;
}`},
		// The pointer phi with equal operands that promotion keeps.
		{"equal-operands", `int f(int c, int *q) {
  int *p = q;
  if (c) { p = q; }
  return *p;
}`},
	}
	for _, p := range progs {
		inputs = append(inputs, input{p.Name, p.Source})
	}
	for seed := int64(1); seed <= seeds; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("csmith-%d", seed),
			csmith.Generate(csmith.Config{Seed: seed, MaxPtrDepth: 2 + int(seed%4)})})
	}
	for _, s := range []int64{1, 2} {
		inputs = append(inputs, input{fmt.Sprintf("synth-%d-%d", funcs, s), synth.Module(funcs, s)})
	}
	for shard := 0; shard < 2; shard++ {
		shard := shard
		t.Run(fmt.Sprintf("shard-%d", shard), func(t *testing.T) {
			t.Parallel()
			for i := shard; i < len(inputs); i += 2 {
				checkPromote(t, inputs[i].name, inputs[i].src)
			}
		})
	}
}

// checkPromote compares both implementations on fresh lowerings of
// src to memory, then on round trips through Eliminate, and holds the
// frontend's own SSA construction to the reference.
func checkPromote(t *testing.T, name, src string) {
	t.Helper()
	prog, err := minic.ParseProgram(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lower := func() *ir.Module {
		m, err := minic.LowerToMemory(name, prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return m
	}
	built, err := minic.LowerProgram(name, prog)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	compareLowered(t, name, lower(), built)
	want, got := lower(), lower()
	comparePromote(t, name+" lowered", want, got)
	for _, f := range want.Funcs {
		ssa.Eliminate(f)
	}
	for _, f := range got.Funcs {
		ssa.Eliminate(f)
	}
	comparePromote(t, name+" ssa round trip", want, got)
	for _, m := range []*ir.Module{want, got} {
		for _, f := range m.Funcs {
			essa.Transform(f, nil)
			ssa.Eliminate(f)
		}
	}
	comparePromote(t, name+" e-ssa round trip", want, got)
}

// comparePromote promotes want with the reference and got with
// Promote, requires identical results, then inserts sigmas into both
// and compares again.
func comparePromote(t *testing.T, label string, want, got *ir.Module) {
	t.Helper()
	if want.String() != got.String() {
		t.Fatalf("%s: inputs differ", label)
	}
	for i := range want.Funcs {
		nw := ssa.ReferencePromote(want.Funcs[i])
		ng := ssa.Promote(got.Funcs[i])
		if nw != ng {
			t.Fatalf("%s: @%s: promoted %d allocas, reference %d", label, got.Funcs[i].FName, ng, nw)
		}
		if err := ssa.VerifySSA(got.Funcs[i]); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if w, g := want.String(), got.String(); w != g {
		t.Fatalf("%s: Promote output differs from the reference\n%s", label, firstDiff(w, g))
	}
	if w, g := undefs(want), undefs(got); w != g {
		t.Fatalf("%s: %d distinct undefs, reference %d", label, g, w)
	}
	for _, m := range []*ir.Module{want, got} {
		for _, f := range m.Funcs {
			essa.InsertSigmas(f)
		}
	}
	if w, g := want.String(), got.String(); w != g {
		t.Fatalf("%s: sigma insertion after Promote differs\n%s", label, firstDiff(w, g))
	}
}

// compareLowered promotes mem, the memory form of a program, with the
// reference and requires what LowerProgram built, got, to equal it: the
// same text, the same number of distinct undefs, nothing left for
// Promote, and the same names after sigma insertion.
func compareLowered(t *testing.T, name string, mem, got *ir.Module) {
	t.Helper()
	for _, f := range mem.Funcs {
		ssa.ReferencePromote(f)
	}
	if w, g := mem.String(), got.String(); w != g {
		t.Fatalf("%s: LowerProgram differs from promoting LowerToMemory\n%s", name, firstDiff(w, g))
	}
	if w, g := undefs(mem), undefs(got); w != g {
		t.Fatalf("%s: LowerProgram has %d distinct undefs, promoting LowerToMemory %d", name, g, w)
	}
	// The benchmark's staged pass still runs Promote after LowerProgram.
	for _, f := range got.Funcs {
		if n := ssa.Promote(f); n != 0 {
			t.Fatalf("%s: Promote found %d allocas to promote in @%s after LowerProgram", name, n, f.FName)
		}
	}
	if w, g := mem.String(), got.String(); w != g {
		t.Fatalf("%s: Promote changed LowerProgram's output\n%s", name, firstDiff(w, g))
	}
	for _, m := range []*ir.Module{mem, got} {
		for _, f := range m.Funcs {
			essa.InsertSigmas(f)
		}
	}
	if w, g := mem.String(), got.String(); w != g {
		t.Fatalf("%s: sigma insertion after LowerProgram differs\n%s", name, firstDiff(w, g))
	}
}

// undefs counts the distinct undef values among the operands of m.
func undefs(m *ir.Module) int {
	seen := map[*ir.Undef]bool{}
	for _, f := range m.Funcs {
		f.Instrs(func(in *ir.Instr) bool {
			for _, a := range in.Args {
				if u, ok := a.(*ir.Undef); ok {
					seen[u] = true
				}
			}
			return true
		})
	}
	return len(seen)
}

// firstDiff renders the first differing line of two texts.
func firstDiff(want, got string) string {
	line := 1
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("line %d:\nwant %q\ngot  %q", line, lineAt(want, i), lineAt(got, i))
		}
		if want[i] == '\n' {
			line++
		}
	}
	return fmt.Sprintf("lengths %d (want) and %d (got)", len(want), len(got))
}

func lineAt(s string, i int) string {
	start, end := i, i
	for start > 0 && s[start-1] != '\n' {
		start--
	}
	for end < len(s) && s[end] != '\n' {
		end++
	}
	return s[start:end]
}
