package alias

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/minic"
)

// build compiles src, runs the full pipeline, and returns the module
// together with the standard analyses.
func build(t *testing.T, src string) (*ir.Module, *Basic, *SRAA) {
	t.Helper()
	m := minic.MustCompile("t", src)
	p := core.Prepare(m, core.PipelineOptions{})
	return m, NewBasic(m), NewSRAA(p.LT)
}

func fnPtr(f *ir.Func, pred func(*ir.Instr) bool) *ir.Instr {
	var out *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if pred(in) {
			out = in
			return false
		}
		return true
	})
	return out
}

func TestBasicDistinctAllocations(t *testing.T) {
	m, ba, _ := build(t, `
int f(int n) {
  int a[4];
  int b[4];
  int *p = malloc(32);
  int *q = malloc(32);
  a[0] = 1; b[0] = 2; p[0] = 3; q[0] = 4;
  return a[0] + b[0] + p[0] + q[0];
}
`)
	f := m.FuncByName("f")
	var sites []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpAlloca || in.Op == ir.OpMalloc {
			sites = append(sites, in)
		}
		return true
	})
	if len(sites) != 4 {
		t.Fatalf("allocation sites = %d, want 4", len(sites))
	}
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			if got := ba.Alias(Loc(sites[i]), Loc(sites[j])); got != NoAlias {
				t.Errorf("BA(%s, %s) = %s, want NoAlias",
					sites[i].Ref(), sites[j].Ref(), got)
			}
		}
	}
}

func TestBasicConstOffsets(t *testing.T) {
	m, ba, _ := build(t, `
int f(int *v) {
  return v[1] + v[2] + v[1];
}
`)
	f := m.FuncByName("f")
	var geps []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpGEP {
			geps = append(geps, in)
		}
		return true
	})
	if len(geps) != 3 {
		t.Fatalf("geps = %d, want 3", len(geps))
	}
	// v[1] vs v[2]: disjoint constant offsets.
	if got := ba.Alias(Loc(geps[0]), Loc(geps[1])); got != NoAlias {
		t.Errorf("v[1] vs v[2] = %s, want NoAlias", got)
	}
	// v[1] vs v[1]: identical.
	if got := ba.Alias(Loc(geps[0]), Loc(geps[2])); got != MustAlias {
		t.Errorf("v[1] vs v[1] = %s, want MustAlias", got)
	}
	// v[1] vs v itself: same base, overlapping? v at offset 0, v[1] at 8.
	if got := ba.Alias(Loc(f.Params[0]), Loc(geps[0])); got != NoAlias {
		t.Errorf("v vs v[1] = %s, want NoAlias", got)
	}
}

func TestBasicEscape(t *testing.T) {
	m, ba, _ := build(t, `
int* keep(int *p) { return p; }

int f(int *ext) {
  int a[4];
  int b[4];
  int *e = keep(b);
  a[0] = 1;
  return a[0] + *ext + *e;
}
`)
	f := m.FuncByName("f")
	aAlloca := fnPtr(f, func(in *ir.Instr) bool {
		return in.Op == ir.OpAlloca && in.Name() == "a.addr"
	})
	bAlloca := fnPtr(f, func(in *ir.Instr) bool {
		return in.Op == ir.OpAlloca && in.Name() == "b.addr"
	})
	if aAlloca == nil || bAlloca == nil {
		t.Fatalf("allocas not found:\n%s", f)
	}
	ext := ir.Value(f.Params[0])
	// a does not escape: cannot alias the parameter.
	if got := ba.Alias(Loc(aAlloca), Loc(ext)); got != NoAlias {
		t.Errorf("non-escaping a vs param = %s, want NoAlias", got)
	}
	// b escapes through the call: must stay MayAlias vs the call
	// result, but a param still cannot alias it... it CAN: keep(b)
	// could be ext on a reentrant call. Conservatively MayAlias.
	if got := ba.Alias(Loc(bAlloca), Loc(ext)); got != MayAlias {
		t.Errorf("escaping b vs param = %s, want MayAlias", got)
	}
	// Distinct identified objects stay NoAlias regardless of escape.
	if got := ba.Alias(Loc(aAlloca), Loc(bAlloca)); got != NoAlias {
		t.Errorf("a vs b = %s, want NoAlias", got)
	}
}

func TestBasicGlobalVsLocal(t *testing.T) {
	m, ba, _ := build(t, `
int g[10];

int f(int *p) {
  int local[10];
  local[0] = g[0];
  return local[0] + *p;
}
`)
	f := m.FuncByName("f")
	loc := fnPtr(f, func(in *ir.Instr) bool { return in.Op == ir.OpAlloca })
	g := m.GlobalByName("g")
	if got := ba.Alias(Loc(loc), Loc(g)); got != NoAlias {
		t.Errorf("local vs global = %s, want NoAlias", got)
	}
	// Global vs param: the caller may pass &g: MayAlias.
	if got := ba.Alias(Loc(g), Loc(f.Params[0])); got != MayAlias {
		t.Errorf("global vs param = %s, want MayAlias", got)
	}
}

// TestSRAAInsSort is the headline result: LT disambiguates v[i] and
// v[j] in Figure 1(a), which BA cannot.
func TestSRAAInsSort(t *testing.T) {
	m, ba, lt := build(t, `
void ins_sort(int* v, int N) {
  int i, j;
  for (i = 0; i < N - 1; i++) {
    for (j = i + 1; j < N; j++) {
      if (v[i] > v[j]) {
        int tmp = v[i];
        v[i] = v[j];
        v[j] = tmp;
      }
    }
  }
}
`)
	f := m.FuncByName("ins_sort")
	var geps []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpGEP {
			geps = append(geps, in)
		}
		return true
	})
	pairs, ltWins, baWins := 0, 0, 0
	for i := 0; i < len(geps); i++ {
		for j := i + 1; j < len(geps); j++ {
			if geps[i].Args[1] == geps[j].Args[1] {
				continue
			}
			pairs++
			if lt.Alias(Loc(geps[i]), Loc(geps[j])) == NoAlias {
				ltWins++
			}
			if ba.Alias(Loc(geps[i]), Loc(geps[j])) == NoAlias {
				baWins++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no distinct-index gep pairs")
	}
	if ltWins != pairs {
		t.Errorf("LT disambiguated %d/%d v[i]-v[j] pairs:\n%s", ltWins, pairs, f)
	}
	if baWins != 0 {
		t.Errorf("BA unexpectedly disambiguated %d variable-index pairs", baWins)
	}
}

// TestSRAAPartition is Figure 1(b).
func TestSRAAPartition(t *testing.T) {
	m, _, lt := build(t, `
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
`)
	f := m.FuncByName("partition")
	// The three swap accesses appear after the break check; find geps
	// whose indices are the false-edge sigmas of i >= j.
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
	if len(swapGeps) < 2 {
		t.Fatalf("swap geps not found:\n%s", f)
	}
	found := false
	for i := 0; i < len(swapGeps); i++ {
		for j := i + 1; j < len(swapGeps); j++ {
			if swapGeps[i].Args[1] == swapGeps[j].Args[1] {
				continue
			}
			found = true
			if got := lt.Alias(Loc(swapGeps[i]), Loc(swapGeps[j])); got != NoAlias {
				t.Errorf("swap pair = %s, want NoAlias", got)
			}
		}
	}
	if !found {
		t.Fatal("no cross-index swap pair")
	}
}

func TestSRAAPointerLoop(t *testing.T) {
	m, _, lt := build(t, `
int sum(int *p, int n) {
  int *e = p + n;
  int s = 0;
  while (p < e) {
    s += *p;
    p++;
  }
  return s;
}
`)
	f := m.FuncByName("sum")
	// Inside the loop, the sigma of p and the sigma of e must not
	// alias (criterion 1).
	var pi, pe *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpSigma && in.OnTrue && ir.IsPtr(in.Typ) {
			if in.CmpSide == 0 {
				pi = in
			} else {
				pe = in
			}
		}
		return true
	})
	if pi == nil || pe == nil {
		t.Fatalf("pointer sigmas missing:\n%s", f)
	}
	if got := lt.Alias(Loc(pi), Loc(pe)); got != NoAlias {
		t.Errorf("p vs e inside loop = %s, want NoAlias", got)
	}
}

func TestSRAANoFalseClaims(t *testing.T) {
	m, _, lt := build(t, `
int f(int *v, int a, int b) {
  return v[a] + v[b];
}
`)
	f := m.FuncByName("f")
	var geps []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpGEP {
			geps = append(geps, in)
		}
		return true
	})
	if got := lt.Alias(Loc(geps[0]), Loc(geps[1])); got != MayAlias {
		t.Errorf("v[a] vs v[b] = %s, want MayAlias (no relation)", got)
	}
}

func TestChainCombination(t *testing.T) {
	m, ba, lt := build(t, `
void f(int *v, int n) {
  int a[4];
  for (int i = 0; i < n; i++) {
    for (int j = i + 1; j < n; j++) {
      v[i] = v[j] + a[0];
    }
  }
}
`)
	chain := NewChain(ba, lt)
	if chain.Name() != "BA+LT" {
		t.Errorf("chain name = %q", chain.Name())
	}
	rep := Evaluate(m, ba, lt, chain)
	cb := rep.PerAnalysis["BA"]
	cl := rep.PerAnalysis["LT"]
	cc := rep.PerAnalysis["BA+LT"]
	if cb.Queries != cl.Queries || cb.Queries != cc.Queries {
		t.Fatal("analyses saw different query sets")
	}
	if cc.No < cb.No || cc.No < cl.No {
		t.Errorf("chain (%d) weaker than components (BA %d, LT %d)",
			cc.No, cb.No, cl.No)
	}
	if cc.No == cb.No && cc.No == cl.No && cb.No != cl.No {
		t.Error("chain did not combine complementary answers")
	}
}

func TestEvaluateCountsConsistent(t *testing.T) {
	m, ba, lt := build(t, `
int f(int *p, int *q, int n) {
  int local[8];
  for (int i = 0; i < n; i++) {
    local[i % 8] += p[i] + q[i];
  }
  return local[0];
}
`)
	rep := Evaluate(m, ba, lt)
	for name, c := range rep.PerAnalysis {
		if c.No+c.May+c.Must != c.Queries {
			t.Errorf("%s: counts don't sum: %+v", name, *c)
		}
		if c.Queries == 0 {
			t.Errorf("%s: no queries", name)
		}
	}
	if rep.String() == "" {
		t.Error("empty report rendering")
	}
}

func TestMergeReports(t *testing.T) {
	m1, ba1, lt1 := build(t, `int f(int *v, int n) { for (int i=0;i<n;i++) v[i]=v[i+1]; return 0; }`)
	r1 := Evaluate(m1, ba1, lt1)
	m2, ba2, lt2 := build(t, `int g(int *w) { return w[0] + w[3]; }`)
	r2 := Evaluate(m2, ba2, lt2)
	merged := MergeReports("all", r1, r2)
	for _, name := range []string{"BA", "LT"} {
		want := r1.PerAnalysis[name].Queries + r2.PerAnalysis[name].Queries
		if got := merged.PerAnalysis[name].Queries; got != want {
			t.Errorf("%s merged queries = %d, want %d", name, got, want)
		}
	}
}

func TestDecompose(t *testing.T) {
	m := ir.MustParse(`
func @f(i64* %p, i64 %x) i64* {
entry:
  %q = gep %p, 3
  %r = gep %q, %x
  %s = gep %r, 2
  ret %s
}
`)
	f := m.FuncByName("f")
	var s *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpGEP && in.Name() == "s" {
			s = in
		}
		return true
	})
	d, _ := decompose(s, nil)
	if d.base != ir.Value(f.Params[0]) {
		t.Errorf("base = %v, want %%p", d.base)
	}
	if d.constOff != 5*8 {
		t.Errorf("constOff = %d, want 40", d.constOff)
	}
	if len(d.varIdx) != 1 || d.varIdx[0].idx != ir.Value(f.Params[1]) {
		t.Errorf("varIdx = %v", d.varIdx)
	}
}
