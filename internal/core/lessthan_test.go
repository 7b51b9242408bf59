package core

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/ir"
	"repro/internal/minic"
)

// fig6 is the running example of the paper (Figure 6): Figure 3's
// program after conversion to e-SSA, written directly in the textual
// IR with explicit sigma and copy instructions. %sel stands in for the
// unspecified branch condition; %x0 is the paper's x0 = [0,1] input.
const fig6 = `
func @fig6(i64 %x0, i64 %sel) i64 {
entry:
  %x1 = add %x0, 1
  jmp loop
loop:
  %x2 = phi i64 [%x1, entry], [%x3, addpath]
  %c0 = icmp eq %sel, 0
  br %c0, subpath, addpath
subpath:
  %x4 = sub %x2, 2
  %x5 = copy %x2, sub %x4
  %c = icmp lt %x4, %x1
  br %c, tarm, farm
tarm:
  %x4t = sigma %x4, cmp %c, true, left
  %x1t = sigma %x1, cmp %c, true, right
  jmp join6
farm:
  %x4f = sigma %x4, cmp %c, false, left
  %x1f = sigma %x1, cmp %c, false, right
  jmp join6
addpath:
  %x3 = add %x2, 1
  %c2 = icmp lt %x3, 100
  br %c2, loop, join6
join6:
  %x6 = phi i64 [%x4, farm], [%x4t, tarm], [%x3, addpath]
  ret %x6
}
`

func namesOf(vs []ir.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name()
	}
	sort.Strings(out)
	return out
}

func valueByName(f *ir.Func, name string) ir.Value {
	for _, p := range f.Params {
		if p.PName == name {
			return p
		}
	}
	var out ir.Value
	f.Instrs(func(in *ir.Instr) bool {
		if in.HasResult() && in.Name() == name {
			out = in
			return false
		}
		return true
	})
	return out
}

// TestPaperExample35 checks the analysis against the fixed point the
// paper reports in Example 3.5.
func TestPaperExample35(t *testing.T) {
	m := ir.MustParse(fig6)
	f := m.FuncByName("fig6")
	res := AnalyzeFunc(f, nil, Options{})

	want := map[string][]string{
		"x0":  {},
		"x4":  {},
		"x4t": {},
		"x6":  {},
		"x1":  {"x0"},
		"x2":  {"x0"},
		"x4f": {"x0"},
		"x1f": {"x0"},
		"x3":  {"x0", "x2"},
		"x5":  {"x0", "x4"},
		"x1t": {"x0", "x4t"},
	}
	for name, wantSet := range want {
		v := valueByName(f, name)
		if v == nil {
			t.Fatalf("value %%%s not found", name)
		}
		got := namesOf(res.LT(v))
		if len(got) == 0 && len(wantSet) == 0 {
			continue
		}
		if len(got) != len(wantSet) {
			t.Errorf("LT(%s) = %v, want %v", name, got, wantSet)
			continue
		}
		for i := range got {
			if got[i] != wantSet[i] {
				t.Errorf("LT(%s) = %v, want %v", name, got, wantSet)
				break
			}
		}
	}
}

func TestLessThanQueries(t *testing.T) {
	m := ir.MustParse(fig6)
	f := m.FuncByName("fig6")
	res := AnalyzeFunc(f, nil, Options{})
	x0 := valueByName(f, "x0")
	x1 := valueByName(f, "x1")
	x3 := valueByName(f, "x3")
	x2 := valueByName(f, "x2")
	if !res.LessThan(x0, x1) {
		t.Error("x0 < x1 not proven")
	}
	if !res.LessThan(x2, x3) || !res.LessThan(x0, x3) {
		t.Error("transitive facts about x3 missing")
	}
	if res.LessThan(x1, x0) {
		t.Error("claims x1 < x0")
	}
	if res.LessThan(x1, x1) {
		t.Error("claims x1 < x1")
	}
	if res.LessThan(x0, ir.ConstInt(5)) {
		t.Error("claims about unindexed constant")
	}
}

// prepareSrc compiles mini-C and runs the full pipeline.
func prepareSrc(t *testing.T, src string) *Prepared {
	t.Helper()
	m := minic.MustCompile("t", src)
	return Prepare(m, PipelineOptions{})
}

// TestInsSortDisambiguation is the paper's headline claim on Figure
// 1(a): within the inner loop, the indices of v[i] and v[j] satisfy
// i < j, so the accesses never alias in an iteration.
func TestInsSortDisambiguation(t *testing.T) {
	p := prepareSrc(t, `
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
	f := p.Module.FuncByName("ins_sort")
	// Collect the GEPs off parameter v and bucket them by index value.
	var geps []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpGEP && in.Args[0] == ir.Value(f.Params[0]) {
			geps = append(geps, in)
		}
		return true
	})
	if len(geps) < 4 {
		t.Fatalf("expected >=4 geps, got %d:\n%s", len(geps), f)
	}
	// Every pair of geps with distinct index values must be ordered by
	// the analysis, one way or the other.
	distinct := 0
	proven := 0
	for i := 0; i < len(geps); i++ {
		for j := i + 1; j < len(geps); j++ {
			a, b := geps[i].Args[1], geps[j].Args[1]
			if a == b {
				continue
			}
			distinct++
			if p.LT.LessThan(a, b) || p.LT.LessThan(b, a) {
				proven++
			}
		}
	}
	if distinct == 0 {
		t.Fatal("no index-distinct gep pairs found")
	}
	if proven != distinct {
		t.Errorf("ordered %d of %d distinct-index gep pairs:\n%s", proven, distinct, f)
	}
}

// TestPartitionDisambiguation is the same claim on Figure 1(b): the
// conditional check `if (i >= j) break` orders the swap's accesses.
func TestPartitionDisambiguation(t *testing.T) {
	p := prepareSrc(t, `
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
	f := p.Module.FuncByName("partition")
	// Find the sigma pair of the i >= j comparison on the false edge
	// (i < j holds there).
	var iSig, jSig *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpSigma && !in.OnTrue && in.Cmp.Pred == ir.CmpGE {
			if in.CmpSide == 0 {
				iSig = in
			} else {
				jSig = in
			}
		}
		return true
	})
	if iSig == nil || jSig == nil {
		t.Fatalf("sigma pair for i >= j not found:\n%s", f)
	}
	if !p.LT.LessThan(iSig, jSig) {
		t.Errorf("i < j not proven on the false edge of i >= j:\n%s", f)
	}
	if p.LT.LessThan(jSig, iSig) {
		t.Error("claims j < i on the false edge")
	}
}

// TestPointerLoopIdiom: "for (int* pi = p; pi < pe; pi++)" gives
// pi < pe inside the loop (Section 3.6).
func TestPointerLoopIdiom(t *testing.T) {
	p := prepareSrc(t, `
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
	f := p.Module.FuncByName("sum")
	var piSig, peSig *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpSigma && in.OnTrue && ir.IsPtr(in.Typ) {
			if in.CmpSide == 0 {
				piSig = in
			} else {
				peSig = in
			}
		}
		return true
	})
	if piSig == nil || peSig == nil {
		t.Fatalf("pointer sigma pair not found:\n%s", f)
	}
	if !p.LT.LessThan(piSig, peSig) {
		t.Errorf("p < e not proven inside the loop:\n%s", f)
	}
}

// TestBasePlusPositiveOffset: p1 = p + n with n > 0 gives p < p1
// (rule 2 on pointers), the fact behind Definition 3.11's base-vs-
// derived disambiguation.
func TestBasePlusPositiveOffset(t *testing.T) {
	p := prepareSrc(t, `
int f(int *p, int n) {
  if (n > 0) {
    int *q = p + n;
    return *q - *p;
  }
  return 0;
}
`)
	f := p.Module.FuncByName("f")
	var gep *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpGEP {
			gep = in
		}
		return true
	})
	if gep == nil {
		t.Fatal("no gep")
	}
	base := gep.Args[0]
	if !p.LT.LessThan(base, gep) {
		t.Errorf("p < p+n (n>0) not proven:\n%s", f)
	}
}

// TestNoFalsePositives: the analysis must not order values it cannot
// prove ordered.
func TestNoFalsePositives(t *testing.T) {
	p := prepareSrc(t, `
int f(int a, int b, int *v) {
  return v[a] + v[b];
}
`)
	f := p.Module.FuncByName("f")
	a, b := ir.Value(f.Params[0]), ir.Value(f.Params[1])
	if p.LT.LessThan(a, b) || p.LT.LessThan(b, a) {
		t.Error("unrelated parameters ordered")
	}
}

// TestPhiIntersection: after a join, only facts holding on both paths
// survive (rule 4).
func TestPhiIntersection(t *testing.T) {
	p := prepareSrc(t, `
int f(int a, int c) {
  int x;
  if (c) {
    x = a + 1;
  } else {
    x = a + 2;
  }
  return x;
}
`)
	f := p.Module.FuncByName("f")
	var phi *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpPhi && ir.IsInt(in.Typ) && len(in.Args) == 2 {
			phi = in
		}
		return true
	})
	if phi == nil {
		t.Fatalf("no phi:\n%s", f)
	}
	a := ir.Value(f.Params[0])
	if !p.LT.LessThan(a, phi) {
		t.Errorf("a < phi(a+1, a+2) not proven:\n%s", f)
	}
}

// TestPhiIntersectionDropsOneSided: a fact holding on only one path
// must not survive the join.
func TestPhiIntersectionDropsOneSided(t *testing.T) {
	p := prepareSrc(t, `
int f(int a, int b, int c) {
  int x;
  if (c) {
    x = a + 1;
  } else {
    x = b;
  }
  return x;
}
`)
	f := p.Module.FuncByName("f")
	var phi *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpPhi && ir.IsInt(in.Typ) && len(in.Args) == 2 {
			phi = in
		}
		return true
	})
	if phi == nil {
		t.Fatalf("no phi:\n%s", f)
	}
	a := ir.Value(f.Params[0])
	if p.LT.LessThan(a, phi) {
		t.Error("one-sided fact a < x survived the phi")
	}
}

// TestSubtractionSplit: after x = a - 1, uses of a see x < a via the
// copy (rule 3) — the case the paper highlights against ABCD.
func TestSubtractionSplit(t *testing.T) {
	p := prepareSrc(t, `
int f(int a, int *v) {
  int x = a - 1;
  return v[x] + v[a];
}
`)
	f := p.Module.FuncByName("f")
	var sub, cp *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpSub:
			sub = in
		case ir.OpCopy:
			cp = in
		}
		return true
	})
	if sub == nil || cp == nil {
		t.Fatalf("sub/copy not found:\n%s", f)
	}
	if !p.LT.LessThan(sub, cp) {
		t.Errorf("x < a (copy) not proven after subtraction:\n%s", f)
	}
	// The second index v[a] must use the copy, so the two geps are
	// ordered.
	var geps []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpGEP {
			geps = append(geps, in)
		}
		return true
	})
	if len(geps) != 2 {
		t.Fatalf("geps = %d, want 2", len(geps))
	}
	i1, i2 := geps[0].Args[1], geps[1].Args[1]
	if !p.LT.LessThan(i1, i2) && !p.LT.LessThan(i2, i1) {
		t.Errorf("indices of v[a-1] and v[a] not ordered:\n%s", f)
	}
}

// TestEqualityPropagation: on the true edge of a == b, facts about
// both operands merge.
func TestEqualityPropagation(t *testing.T) {
	p := prepareSrc(t, `
int f(int a, int b, int c) {
  int x = a + 1;
  if (x == b) {
    return b - c;
  }
  return 0;
}
`)
	f := p.Module.FuncByName("f")
	var bSig *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpSigma && in.OnTrue && in.Cmp.Pred == ir.CmpEQ && in.CmpSide == 1 {
			bSig = in
		}
		return true
	})
	if bSig == nil {
		t.Fatalf("no equality sigma:\n%s", f)
	}
	a := ir.Value(f.Params[0])
	if !p.LT.LessThan(a, bSig) {
		t.Errorf("a < b not derived from x == b with x = a+1:\n%s", f)
	}
}

func TestStatsShape(t *testing.T) {
	p := prepareSrc(t, `
int f(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += i;
  return s;
}
`)
	st := p.LT.Stats
	if st.Instrs == 0 || st.Vars == 0 {
		t.Fatal("empty stats")
	}
	if st.Constraints == 0 {
		t.Error("no constraints generated")
	}
	if st.Constraints > st.Vars {
		t.Errorf("constraints (%d) exceed variables (%d)", st.Constraints, st.Vars)
	}
	if st.Pops < st.Constraints {
		t.Errorf("pops (%d) below constraints (%d): worklist did not visit each", st.Pops, st.Constraints)
	}
	// Section 4.2: each constraint is visited a small constant number
	// of times.
	if ratio := float64(st.Pops) / float64(st.Vars); ratio > 10 {
		t.Errorf("pops per variable = %.1f, expected small constant", ratio)
	}
}

func TestSetSizeDistribution(t *testing.T) {
	p := prepareSrc(t, `
int f(int n, int *v) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    for (int j = i + 1; j < n; j++) {
      s += v[i] + v[j];
    }
  }
  return s;
}
`)
	dist := p.LT.SetSizeDistribution()
	if len(dist) == 0 {
		t.Fatal("empty distribution")
	}
	total, small := 0, 0
	for _, kv := range dist {
		total += kv[1]
		if kv[0] <= 2 {
			small += kv[1]
		}
	}
	// The paper observes >95% of sets have <= 2 elements; on this
	// small kernel the same shape must hold loosely.
	if float64(small)/float64(total) < 0.5 {
		t.Errorf("set size distribution unexpectedly heavy: %v", dist)
	}
}

// TestNonStrictExtension: with the extension enabled, x = a + n with
// n >= 0 propagates LT(a) into LT(x).
func TestNonStrictExtension(t *testing.T) {
	src := `
int f(int a, int n, int *v) {
  int b = a + 1;
  if (n >= 0) {
    int c = b + n;
    return v[c] - v[a];
  }
  return 0;
}
`
	strict := prepareSrc(t, src)
	fs := strict.Module.FuncByName("f")
	var cStrict ir.Value
	fs.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpAdd {
			if _, isP := in.Args[1].(*ir.Param); isP {
				cStrict = in
			}
			if s, isS := in.Args[1].(*ir.Instr); isS && s.Op == ir.OpSigma {
				cStrict = in
			}
		}
		return true
	})
	if cStrict == nil {
		t.Fatalf("c = b + n not found:\n%s", fs)
	}
	a := ir.Value(fs.Params[0])
	if strict.LT.LessThan(a, cStrict) {
		t.Log("strict mode already proves a < c (range lifted n to >0); acceptable")
	}

	m2 := minic.MustCompile("t", src)
	ext := Prepare(m2, PipelineOptions{Analysis: Options{NonStrict: true}})
	f2 := ext.Module.FuncByName("f")
	var c2 ir.Value
	f2.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpAdd {
			if s, isS := in.Args[1].(*ir.Instr); isS && s.Op == ir.OpSigma {
				c2 = in
			}
			if _, isP := in.Args[1].(*ir.Param); isP {
				c2 = in
			}
		}
		return true
	})
	if c2 == nil {
		t.Fatalf("c not found in extended module:\n%s", f2)
	}
	if !ext.LT.LessThan(ir.Value(f2.Params[0]), c2) {
		t.Errorf("NonStrict extension failed to prove a < b + n (n>=0):\n%s", f2)
	}
}

// TestAblationNoESSA: without e-SSA the branch-derived facts vanish.
func TestAblationNoESSA(t *testing.T) {
	src := `
int f(int i, int j, int *v) {
  if (i < j) {
    return v[i] + v[j];
  }
  return 0;
}
`
	with := Prepare(minic.MustCompile("t", src), PipelineOptions{})
	without := Prepare(minic.MustCompile("t", src), PipelineOptions{NoESSA: true})

	count := func(p *Prepared) int {
		f := p.Module.FuncByName("f")
		n := 0
		for _, v := range p.LT.VarsOf(f) {
			n += len(p.LT.LT(v))
		}
		return n
	}
	if count(with) <= count(without) {
		t.Errorf("e-SSA ablation did not reduce facts: with=%d without=%d",
			count(with), count(without))
	}
}

// TestTopLattice checks the solver's handling of top (V, a nil set),
// which internal/bitvec knows nothing about: top is the identity of ∩
// and absorbing for ∪, an intersection of tops stays top, and no
// operand set is mutated — solver sets are shared and interned.
func TestTopLattice(t *testing.T) {
	prop := func(a, b []byte) bool {
		sa, sb := &bitvec.Set{}, &bitvec.Set{}
		for _, x := range a {
			sa.Add(int(x))
		}
		for _, x := range b {
			sb.Add(int(x))
		}
		// Variables: 0 = top, 1 = a, 2 = b.
		sets := []*bitvec.Set{nil, sa, sb}
		origA, origB := sa.Clone(), sb.Clone()
		inter := func(refs ...int) *bitvec.Set {
			return evalConstraint(constraint{kind: cInter, refs: refs}, sets)
		}
		union := func(elts []int, refs ...int) *bitvec.Set {
			return evalConstraint(constraint{kind: cUnion, elts: elts, refs: refs}, sets)
		}
		ab := sa.Clone()
		ab.IntersectWith(sb)
		ok := inter(0, 1).Equal(sa) && inter(1, 0).Equal(sa) &&
			inter(0, 1, 0, 2).Equal(ab) &&
			inter(0) == nil && inter(0, 0) == nil &&
			union(nil, 1, 0) == nil && union([]int{5}, 0) == nil &&
			union(nil, 0) == nil && union([]int{5}, 1).Has(5)
		return ok && sa.Equal(origA) && sb.Equal(origB)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}
