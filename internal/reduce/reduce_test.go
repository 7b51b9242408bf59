package reduce

import (
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/csmith"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

func newStats() *Stats { return &Stats{} }

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func contains(items []int, want ...int) bool {
	set := map[int]bool{}
	for _, i := range items {
		set[i] = true
	}
	for _, w := range want {
		if !set[w] {
			return false
		}
	}
	return true
}

func TestDdminFindsMinimalCore(t *testing.T) {
	// The failure needs exactly {3, 7}; everything else is noise.
	st := newStats()
	got := ddmin(ints(20), func(keep []int) bool {
		return contains(keep, 3, 7)
	}, nil, st)
	if len(got) != 2 || !contains(got, 3, 7) {
		t.Fatalf("ddmin = %v, want [3 7]", got)
	}
	if st.Tests == 0 || st.Removed != 18 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDdminSingleton(t *testing.T) {
	// A failure that needs nothing at all shrinks to the empty list.
	st := newStats()
	got := ddmin(ints(9), func([]int) bool { return true }, nil, st)
	if len(got) != 0 {
		t.Fatalf("ddmin = %v, want []", got)
	}
	// And one that needs everything keeps everything.
	st = newStats()
	all := ints(5)
	got = ddmin(all, func(keep []int) bool { return len(keep) == 5 }, nil, st)
	if len(got) != 5 {
		t.Fatalf("ddmin = %v, want all five", got)
	}
}

func TestDdminDeterministic(t *testing.T) {
	run := func() ([]int, int) {
		st := newStats()
		got := ddmin(ints(31), func(keep []int) bool {
			return contains(keep, 2, 17, 29)
		}, nil, st)
		return got, st.Tests
	}
	a, at := run()
	b, bt := run()
	if len(a) != len(b) || at != bt {
		t.Fatalf("nondeterministic: %v (%d tests) vs %v (%d tests)", a, at, b, bt)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order: %v vs %v", a, b)
		}
	}
}

func TestDdminBudget(t *testing.T) {
	bud := budget.Spec{MaxSteps: 3}.Start(t.Context())
	st := newStats()
	got := ddmin(ints(100), func(keep []int) bool {
		return contains(keep, 50)
	}, bud, st)
	if !st.Exhausted {
		t.Fatalf("expected exhaustion, stats %+v", st)
	}
	if !contains(got, 50) {
		t.Fatalf("budget exhaustion lost the needed element: %v", got)
	}
}

// trapsOOB is the oracle used by the source-reduction tests: the
// program compiles and its execution traps out of bounds.
func trapsOOB(src string) bool {
	prog, err := minic.ParseProgram(src)
	if err != nil {
		return false
	}
	m, err := minic.LowerToMemory("t", prog)
	if err != nil {
		return false
	}
	if m.FuncByName("main") == nil {
		return false
	}
	_, rerr := interp.NewMachine(m, interp.Options{MaxSteps: 200000}).Run("main")
	tr := interp.TrapOf(rerr)
	return tr != nil && tr.Code == interp.TrapOOB
}

const oobKernel = `int a[4];
int pad_1(void) { return 1; }
int pad_2(int v) { return v * 3; }
int main(void) {
  int i = 0;
  int sum = 0;
  while (i < 3) {
    sum += pad_2(i);
    i++;
  }
  if (sum > 100) { sum = 100; }
  a[0] = pad_1();
  a[7] = sum;
  return a[0];
}`

func TestSourceReduceOOB(t *testing.T) {
	res, err := Source(oobKernel, trapsOOB, budget.Spec{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !trapsOOB(res.Source) {
		t.Fatalf("reduced program lost the failure:\n%s", res.Source)
	}
	if res.StmtsAfter >= res.StmtsBefore {
		t.Fatalf("no reduction: %d -> %d", res.StmtsBefore, res.StmtsAfter)
	}
	// The only statement main needs is the out-of-bounds store (sum
	// degrades to an uninitialized local read of 0... but sum's decl is
	// removable too since `a[7] = sum` needs sum declared). The floor
	// is tiny either way.
	if res.StmtsAfter > 3 {
		t.Fatalf("expected near-total reduction, got %d units:\n%s", res.StmtsAfter, res.Source)
	}
	if !strings.Contains(res.Source, "a[7]") {
		t.Fatalf("reduced program no longer contains the OOB store:\n%s", res.Source)
	}
}

func TestSourceReduceDeterministic(t *testing.T) {
	a, err := Source(oobKernel, trapsOOB, budget.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Source(oobKernel, trapsOOB, budget.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != b.Source {
		t.Fatalf("nondeterministic reduction:\n--- a ---\n%s--- b ---\n%s", a.Source, b.Source)
	}
	if a.Stats != b.Stats {
		t.Fatalf("nondeterministic stats: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestSourceReduceIdempotent: reducing an already-minimal program is a
// no-op — same bytes out, nothing removed.
func TestSourceReduceIdempotent(t *testing.T) {
	first, err := Source(oobKernel, trapsOOB, budget.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Source(first.Source, trapsOOB, budget.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != first.Source {
		t.Fatalf("not idempotent:\n--- first ---\n%s--- second ---\n%s", first.Source, second.Source)
	}
	if second.Stats.Removed != 0 {
		t.Fatalf("second reduction removed %d units from a minimal input", second.Stats.Removed)
	}
}

// TestSourceReduceCsmith runs the reducer over a generated program with
// an injected OOB — the E2E shape the fuzz loop exercises. The
// acceptance bar: the minimized program is at most 25% of the original
// statement count and still triggers the same oracle.
func TestSourceReduceCsmith(t *testing.T) {
	src := csmith.Generate(csmith.Config{Seed: 4242, MaxPtrDepth: 3, Stmts: 40, InjectOOB: true})
	if !trapsOOB(src) {
		t.Skip("seed 4242 does not trap OOB; pick another seed")
	}
	res, err := Source(src, trapsOOB, budget.Spec{Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !trapsOOB(res.Source) {
		t.Fatalf("reduced program lost the trap:\n%s", res.Source)
	}
	if res.StmtsAfter*4 > res.StmtsBefore {
		t.Fatalf("reduction too weak: %d -> %d (> 25%%)", res.StmtsBefore, res.StmtsAfter)
	}
	// Determinism across runs, byte for byte.
	res2, err := Source(src, trapsOOB, budget.Spec{Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != res2.Source {
		t.Fatalf("nondeterministic csmith reduction")
	}
}

// TestSourceReduceLongExpressions: a witness whose store holds an
// operator chain longer than the parser's nesting bound and a unary
// chain at the bound still reduces, because every printed candidate
// reparses.
func TestSourceReduceLongExpressions(t *testing.T) {
	src := strings.Replace(oobKernel, "a[7] = sum;",
		"a[7] = sum"+strings.Repeat(" - i", 1000)+" + "+strings.Repeat("- ", 997)+"1;", 1)
	if !trapsOOB(src) {
		t.Fatal("the long-expression kernel does not trap")
	}
	res, err := Source(src, trapsOOB, budget.Spec{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !trapsOOB(res.Source) || res.StmtsAfter >= res.StmtsBefore {
		t.Fatalf("no reduction that keeps the trap: %d -> %d units", res.StmtsBefore, res.StmtsAfter)
	}
}

func TestSourceErrors(t *testing.T) {
	if _, err := Source("int main(void) { return 0; }", trapsOOB, budget.Spec{}); err == nil {
		t.Fatal("expected error when predicate fails on input")
	}
	if _, err := Source("not C at all {{{", trapsOOB, budget.Spec{}); err == nil {
		t.Fatal("expected error on unparseable input")
	}
}

// moduleTrapsOOB is the IR-level oracle.
func moduleTrapsOOB(m *ir.Module) bool {
	if m.FuncByName("main") == nil {
		return false
	}
	_, rerr := interp.NewMachine(m, interp.Options{MaxSteps: 200000}).Run("main")
	tr := interp.TrapOf(rerr)
	return tr != nil && tr.Code == interp.TrapOOB
}

func lowerForTest(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := minic.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := minic.LowerToMemory("t", prog)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModuleReduceOOB(t *testing.T) {
	m := lowerForTest(t, oobKernel)
	if !moduleTrapsOOB(m) {
		t.Fatal("kernel module does not trap")
	}
	res, err := Module(m, "main", moduleTrapsOOB, budget.Spec{Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !moduleTrapsOOB(res.Module) {
		t.Fatalf("reduced module lost the trap:\n%s", res.Source)
	}
	if res.InstrsAfter >= res.InstrsBefore {
		t.Fatalf("no reduction: %d -> %d instrs", res.InstrsBefore, res.InstrsAfter)
	}
	// The pad functions are unreachable from the trap; they must be gone.
	if res.Module.FuncByName("pad_1") != nil || res.Module.FuncByName("pad_2") != nil {
		t.Fatalf("dead functions survived:\n%s", res.Source)
	}
	// The result must round-trip: the corpus stores it as text.
	if _, err := ir.Parse(res.Source); err != nil {
		t.Fatalf("reduced module does not reparse: %v", err)
	}
}

func TestModuleReduceDeterministic(t *testing.T) {
	m := lowerForTest(t, oobKernel)
	a, err := Module(m, "main", moduleTrapsOOB, budget.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Module(m, "main", moduleTrapsOOB, budget.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != b.Source {
		t.Fatalf("nondeterministic module reduction:\n--- a ---\n%s--- b ---\n%s", a.Source, b.Source)
	}
}

// TestModuleReduceIdempotent mirrors the source-level idempotence
// guarantee at the IR level.
func TestModuleReduceIdempotent(t *testing.T) {
	m := lowerForTest(t, oobKernel)
	first, err := Module(m, "main", moduleTrapsOOB, budget.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ir.Parse(first.Source)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Module(m2, "main", moduleTrapsOOB, budget.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != first.Source {
		t.Fatalf("not idempotent:\n--- first ---\n%s--- second ---\n%s", first.Source, second.Source)
	}
}

func TestModuleErrors(t *testing.T) {
	m := lowerForTest(t, "int main(void) { return 0; }")
	if _, err := Module(m, "main", moduleTrapsOOB, budget.Spec{}); err == nil {
		t.Fatal("expected error when predicate fails on input")
	}
}
