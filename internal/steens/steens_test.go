package steens

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/budget"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/soundcheck"
)

func analyze(t *testing.T, src string) (*ir.Module, *Analysis) {
	t.Helper()
	m := minic.MustCompile("t", src)
	return m, Analyze(m)
}

func findOp(f *ir.Func, op ir.Op, nth int) *ir.Instr {
	var out *ir.Instr
	n := 0
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == op {
			if n == nth {
				out = in
				return false
			}
			n++
		}
		return true
	})
	return out
}

func TestDistinctAllocsNoAlias(t *testing.T) {
	m, a := analyze(t, `
int f() {
  int *p = malloc(8);
  int *q = malloc(8);
  *p = 1;
  *q = 2;
  return *p + *q;
}
`)
	f := m.FuncByName("f")
	p := findOp(f, ir.OpMalloc, 0)
	q := findOp(f, ir.OpMalloc, 1)
	if got := a.Alias(alias.Loc(p), alias.Loc(q)); got != alias.NoAlias {
		t.Errorf("malloc vs malloc = %s, want NoAlias", got)
	}
	if got := a.Alias(alias.Loc(p), alias.Loc(p)); got != alias.MayAlias {
		t.Errorf("p vs p = %s, want MayAlias (same object)", got)
	}
}

func TestPhiMergesClasses(t *testing.T) {
	// r merges p and q (phi after promotion, or store/load through
	// r's slot before it) and drags both into one class —
	// Steensgaard's signature imprecision: p and q then MayAlias each
	// other even though Andersen keeps them apart.
	m, a := analyze(t, `
int f(int c) {
  int *p = malloc(8);
  int *q = malloc(8);
  int *r = p;
  if (c) {
    r = q;
  }
  *r = 1;
  return *p + *q;
}
`)
	f := m.FuncByName("f")
	p := findOp(f, ir.OpMalloc, 0)
	q := findOp(f, ir.OpMalloc, 1)
	if got := a.Alias(alias.Loc(p), alias.Loc(q)); got != alias.MayAlias {
		t.Errorf("p vs q with merging phi = %s, want MayAlias (unification)", got)
	}
}

func TestExternalPointerIsUnknown(t *testing.T) {
	m, a := analyze(t, `
int g(int *ext) {
  int *p = malloc(8);
  *p = 1;
  return *ext + *p;
}
`)
	f := m.FuncByName("g")
	p := findOp(f, ir.OpMalloc, 0)
	ext := f.Params[0]
	if got := a.Alias(alias.Loc(ext), alias.Loc(p)); got != alias.MayAlias {
		t.Errorf("unknown param vs malloc = %s, want MayAlias", got)
	}
}

// TestUngroundedNeverNoAlias: a pointer with no assignment anywhere
// (Andersen set empty) must never witness NoAlias, even against a
// grounded pointer in a different class.
func TestUngroundedNeverNoAlias(t *testing.T) {
	m, a := analyze(t, `
int f() {
  int **slot = malloc(8);
  int *p = *slot;
  int *q = malloc(8);
  *q = 1;
  return *p;
}
`)
	f := m.FuncByName("f")
	q := findOp(f, ir.OpMalloc, 1)
	var load *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpLoad && ir.IsPtr(in.Typ) {
			load = in
			return false
		}
		return true
	})
	if load == nil {
		t.Skip("no pointer load in lowered form")
	}
	if got := a.Alias(alias.Loc(load), alias.Loc(q)); got != alias.MayAlias {
		t.Errorf("ungrounded load vs malloc = %s, want MayAlias", got)
	}
}

func TestDegradedAnswersMayAlias(t *testing.T) {
	src := `
int f() {
  int *p = malloc(8);
  int *q = malloc(8);
  *p = 1;
  *q = 2;
  return *p + *q;
}
`
	m := minic.MustCompile("t", src)
	a := AnalyzeCtx(t.Context(), m, Opts{Budget: budget.Spec{MaxSteps: 1}})
	if a.Degraded() == nil {
		t.Fatal("1-step budget did not degrade")
	}
	f := m.FuncByName("f")
	p := findOp(f, ir.OpMalloc, 0)
	q := findOp(f, ir.OpMalloc, 1)
	if got := a.Alias(alias.Loc(p), alias.Loc(q)); got != alias.MayAlias {
		t.Errorf("degraded Alias = %s, want MayAlias", got)
	}
}

// storeKernel stores a pointer through a pointer and loads it back,
// so o reaches z only through memory. Steensgaard's rule for *p = v
// must unify the contents of p's pointee with v's pointee; joining
// them the other way round left o's class apart from z's, and ST
// answered NoAlias for two pointers that hold one address.
const storeKernel = `
int main(int c) {
  int *o = malloc(8);
  int **p = malloc(8);
  *p = o;
  int *x = *p;
  int *y = malloc(8);
  int *z = y;
  if (c) z = x;
  *z = 1;
  *o = 2;
  return *z;
}
`

// TestStoreRuleSoundAgainstInterpreter runs storeKernel through the
// interpreter and requires every NoAlias answer to hold on the path
// it takes.
func TestStoreRuleSoundAgainstInterpreter(t *testing.T) {
	m, a := analyze(t, storeKernel)
	rep, err := soundcheck.CheckAlias(m, a, "main", interp.IntVal(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksVisited == 0 {
		t.Fatal("the interpreter visited no block")
	}
	for _, v := range rep.Violations {
		t.Error(v)
	}
}

func TestUnanalyzed(t *testing.T) {
	a := Unanalyzed(budget.ErrExceeded)
	if a.Degraded() == nil {
		t.Fatal("Unanalyzed not degraded")
	}
	if got := a.Alias(alias.Location{}, alias.Location{}); got != alias.MayAlias {
		t.Errorf("Unanalyzed Alias = %s, want MayAlias", got)
	}
}

// TestImplementsAnalysis pins the interface contract.
var _ alias.Analysis = (*Analysis)(nil)
