package core

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
)

// interprocSrc: the ordering fact i < j exists only in the callers;
// the callee's accesses can be disambiguated only if the fact crosses
// the call boundary through the parameter pseudo-phis of Section 4.
const interprocSrc = `
void kernel(int *v, int i, int j) {
  v[i] = v[j] + 1;
}

void driver(int *v, int n) {
  for (int i = 0; i < n; i++) {
    int j = i + 1;
    kernel(v, i, j);
  }
  kernel(v, 2, 7);
}
`

func TestInterprocParamFacts(t *testing.T) {
	m := minic.MustCompile("t", interprocSrc)
	prep := Prepare(m, PipelineOptions{Interprocedural: true})
	kernel := prep.Module.FuncByName("kernel")
	i, j := ir.Value(kernel.Params[1]), ir.Value(kernel.Params[2])
	if !prep.LT.LessThan(i, j) {
		t.Errorf("i < j not propagated into the callee's formals")
	}
	if prep.LT.LessThan(j, i) {
		t.Error("claims j < i across the call boundary")
	}
	// The kernel's accesses become disambiguable.
	var geps []*ir.Instr
	kernel.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpGEP {
			geps = append(geps, in)
		}
		return true
	})
	if len(geps) != 2 {
		t.Fatalf("geps = %d:\n%s", len(geps), kernel)
	}
	i1, i2 := geps[0].Args[1], geps[1].Args[1]
	if !prep.LT.LessThan(i1, i2) && !prep.LT.LessThan(i2, i1) {
		t.Errorf("callee accesses not ordered interprocedurally:\n%s", kernel)
	}
}

func TestIntraprocMissesParamFacts(t *testing.T) {
	m := minic.MustCompile("t", interprocSrc)
	prep := Prepare(m, PipelineOptions{})
	kernel := prep.Module.FuncByName("kernel")
	i, j := ir.Value(kernel.Params[1]), ir.Value(kernel.Params[2])
	if prep.LT.LessThan(i, j) {
		t.Error("intra-procedural mode should not know i < j")
	}
}

// TestInterprocRejectsMixedCallSites: one violating call site kills
// the fact (intersection semantics).
func TestInterprocRejectsMixedCallSites(t *testing.T) {
	src := `
void kernel(int *v, int i, int j) {
  v[i] = v[j] + 1;
}

void driver(int *v, int n) {
  for (int i = 0; i < n; i++) {
    int j = i + 1;
    kernel(v, i, j);
  }
  kernel(v, 9, 3);
}
`
	m := minic.MustCompile("t", src)
	prep := Prepare(m, PipelineOptions{Interprocedural: true})
	kernel := prep.Module.FuncByName("kernel")
	i, j := ir.Value(kernel.Params[1]), ir.Value(kernel.Params[2])
	if prep.LT.LessThan(i, j) {
		t.Error("fact survived a violating call site (9, 3)")
	}
}

// TestInterprocTransitiveChain: facts flow through two call levels.
func TestInterprocTransitiveChain(t *testing.T) {
	src := `
void leaf(int *v, int a, int b) {
  v[a] = v[b];
}

void mid(int *v, int x, int y) {
  leaf(v, x, y);
}

void top(int *v, int n) {
  for (int i = 0; i < n; i++) {
    mid(v, i, i + 1);
  }
}
`
	m := minic.MustCompile("t", src)
	prep := Prepare(m, PipelineOptions{Interprocedural: true})
	leaf := prep.Module.FuncByName("leaf")
	a, b := ir.Value(leaf.Params[1]), ir.Value(leaf.Params[2])
	if !prep.LT.LessThan(a, b) {
		t.Error("fact did not flow through two call levels")
	}
}

// TestInterprocEntryParamsUnseeded: functions without in-module
// callers get no parameter facts.
func TestInterprocEntryParamsUnseeded(t *testing.T) {
	src := `
int entry(int a, int b, int *v) {
  return v[a] + v[b];
}
`
	m := minic.MustCompile("t", src)
	prep := Prepare(m, PipelineOptions{Interprocedural: true})
	f := prep.Module.FuncByName("entry")
	if prep.LT.LessThan(ir.Value(f.Params[0]), ir.Value(f.Params[1])) {
		t.Error("uncalled function's params should carry no facts")
	}
}

// TestInterprocEntryRule: parameter facts come only from the call
// sites of functions an entry point reaches. A function called only by
// itself, or a cycle nothing else calls, may be called from outside
// with any arguments, so its own calls prove nothing; once an entry
// point calls in, every call site counts.
func TestInterprocEntryRule(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		// fns lists the functions whose (i, j) parameters are checked.
		fns  []string
		want bool
	}{
		{"self-recursive", `
void f(int *p, int i, int j) {
  p[i] = 1;
  p[j] = 2;
  f(p, i, i + 1);
}
int main(void) { return 0; }
`, []string{"f"}, false},
		{"uncalled cycle", `
void g(int *p, int i, int j) {
  p[i] = p[j];
  h(p, i, i + 1);
}
void h(int *p, int i, int j) {
  p[j] = p[i];
  g(p, i, i + 1);
}
int main(void) { return 0; }
`, []string{"g", "h"}, false},
		{"self-recursive, called", `
void f(int *p, int i, int j) {
  p[i] = 1;
  p[j] = 2;
  f(p, i, i + 1);
}
int main(void) {
  int a[8];
  f(a, 0, 1);
  return 0;
}
`, []string{"f"}, true},
	} {
		m := minic.MustCompile("t", tc.src)
		prep := Prepare(m, PipelineOptions{Interprocedural: true})
		for _, name := range tc.fns {
			f := prep.Module.FuncByName(name)
			if got := prep.LT.LessThan(ir.Value(f.Params[1]), ir.Value(f.Params[2])); got != tc.want {
				t.Errorf("%s: @%s i < j = %v, want %v", tc.name, name, got, tc.want)
			}
		}
	}
}
