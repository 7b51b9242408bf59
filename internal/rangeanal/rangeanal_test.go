package rangeanal

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/essa"
	"repro/internal/ir"
	"repro/internal/minic"
)

func TestIntervalOps(t *testing.T) {
	a := Interval{1, 5}
	b := Interval{-3, 2}
	if got := Add(a, b); got != (Interval{-2, 7}) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(a, b); got != (Interval{-1, 8}) {
		t.Errorf("Sub = %v", got)
	}
	if got := Mul(a, b); got != (Interval{-15, 10}) {
		t.Errorf("Mul = %v", got)
	}
	if got := Union(a, b); got != (Interval{-3, 5}) {
		t.Errorf("Union = %v", got)
	}
	if got := Intersect(a, b); got != (Interval{1, 2}) {
		t.Errorf("Intersect = %v", got)
	}
	if !Intersect(Interval{3, 5}, Interval{6, 9}).IsEmpty() {
		t.Error("disjoint intersection not empty")
	}
	if got := Neg(a); got != (Interval{-5, -1}) {
		t.Errorf("Neg = %v", got)
	}
	if got := Div(Interval{10, 20}, Interval{2, 5}); got != (Interval{2, 10}) {
		t.Errorf("Div = %v", got)
	}
	if !Div(a, Interval{-1, 1}).IsTop() {
		t.Error("division by interval containing 0 must be Top")
	}
	if got := Rem(Interval{0, 100}, Point(7)); got != (Interval{0, 6}) {
		t.Errorf("Rem = %v", got)
	}
}

func TestIntervalSaturation(t *testing.T) {
	if got := Add(Interval{PosInf - 1, PosInf}, Point(5)); got.Hi != PosInf {
		t.Errorf("Add did not saturate: %v", got)
	}
	if got := Sub(Interval{NegInf, 0}, Point(1)); got.Lo != NegInf {
		t.Errorf("Sub did not saturate: %v", got)
	}
	if got := Mul(Interval{NegInf, 2}, Point(3)); got.Lo != NegInf {
		t.Errorf("Mul did not saturate: %v", got)
	}
	if got := Mul(Point(1<<40), Point(1<<40)); got.Hi != PosInf {
		t.Errorf("Mul overflow not saturated: %v", got)
	}
}

// TestIntervalSoundness property-checks interval arithmetic against
// concrete evaluation: for intervals built from pairs and points
// inside them, the abstract result must contain the concrete result.
func TestIntervalSoundness(t *testing.T) {
	mk := func(a, b int64) Interval {
		if a > b {
			a, b = b, a
		}
		return Interval{a, b}
	}
	clamp := func(x int64) int64 { return x % 1000 }
	prop := func(a1, a2, b1, b2, pickA, pickB uint8) bool {
		x1, x2 := clamp(int64(a1)), clamp(int64(a2))
		y1, y2 := clamp(int64(b1)), clamp(int64(b2))
		ia, ib := mk(x1, x2), mk(y1, y2)
		// Pick concrete points inside.
		pa := ia.Lo + int64(pickA)%(ia.Hi-ia.Lo+1)
		pb := ib.Lo + int64(pickB)%(ib.Hi-ib.Lo+1)
		if !Add(ia, ib).Contains(pa + pb) {
			return false
		}
		if !Sub(ia, ib).Contains(pa - pb) {
			return false
		}
		if !Mul(ia, ib).Contains(pa * pb) {
			return false
		}
		if pb != 0 && !Div(ia, ib).Contains(pa/pb) {
			return false
		}
		if !Union(ia, ib).Contains(pa) || !Union(ia, ib).Contains(pb) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWidenTerminates(t *testing.T) {
	w := Widen(Interval{0, 0}, Interval{0, 1})
	if w.Hi != PosInf || w.Lo != 0 {
		t.Errorf("Widen growing hi = %v, want [0, +inf]", w)
	}
	w = Widen(Interval{0, 5}, Interval{-1, 5})
	if w.Lo != NegInf || w.Hi != 5 {
		t.Errorf("Widen growing lo = %v", w)
	}
	if got := Widen(Interval{0, 5}, Interval{1, 4}); !got.Eq(Interval{0, 5}) {
		t.Errorf("Widen of shrink changed: %v", got)
	}
}

// analyzeSrc compiles src, applies e-SSA, and runs the module
// analysis.
func analyzeSrc(t *testing.T, src string) (*ir.Module, *Result) {
	t.Helper()
	m := minic.MustCompile("t", src)
	essa.TransformModule(m, nil)
	return m, Analyze(m)
}

// valueByName finds the unique SSA value whose name has the given
// prefix before any dot-suffix renaming.
func instrByOp(f *ir.Func, op ir.Op) *ir.Instr {
	var out *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == op {
			out = in
			return false
		}
		return true
	})
	return out
}

func TestRangeConstants(t *testing.T) {
	m, r := analyzeSrc(t, `
int f() {
  int x = 10;
  int y = x + 5;
  int z = y * 2;
  return z - 1;
}
`)
	f := m.FuncByName("f")
	ret := instrByOp(f, ir.OpRet)
	iv := r.Range(ret.Args[0])
	if !iv.Eq(Point(29)) {
		t.Errorf("constant folding through ranges = %v, want [29,29]", iv)
	}
}

func TestRangeLoopInduction(t *testing.T) {
	m, r := analyzeSrc(t, `
int f(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    s = s + 1;
    use(i);
  }
  return s;
}
`)
	f := m.FuncByName("f")
	// The induction variable's sigma inside the body is i < n, and
	// since i starts at 0: [0, +inf) for the phi.
	var phi *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpPhi && len(in.Args) == 2 {
			for _, a := range in.Args {
				if c, ok := a.(*ir.Const); ok && c.Val == 0 {
					phi = in
				}
			}
		}
		return true
	})
	if phi == nil {
		t.Fatalf("no induction phi found:\n%s", f)
	}
	iv := r.Range(phi)
	if iv.Lo != 0 {
		t.Errorf("induction variable range = %v, want lo 0", iv)
	}
	// The sigma in the body must be non-negative too.
	var sig *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpSigma && in.OnTrue && in.Args[0] == ir.Value(phi) {
			sig = in
		}
		return true
	})
	if sig != nil {
		siv := r.Range(sig)
		if siv.Lo != 0 {
			t.Errorf("body sigma range = %v, want lo 0", siv)
		}
	}
}

func TestRangeBoundedLoop(t *testing.T) {
	m, r := analyzeSrc(t, `
int f() {
  int s = 0;
  for (int i = 0; i < 10; i++) {
    s = s + i;
  }
  return s;
}
`)
	// With a constant bound the narrowing phase pins i to [0, 10].
	found := false
	for v, iv := range rangesOf(m, r) {
		if in, ok := v.(*ir.Instr); ok && in.Op == ir.OpPhi && ir.IsInt(in.Typ) {
			if iv.Lo == 0 && iv.Hi <= 10 && iv.Hi >= 9 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no phi narrowed to the constant loop bound")
	}
}

// rangesOf exposes the intervals of m's tracked values for white-box
// assertions.
func rangesOf(m *ir.Module, r *Result) map[ir.Value]Interval {
	out := map[ir.Value]Interval{}
	for _, f := range m.Funcs {
		for _, v := range f.Values() {
			if n, ok := r.nodes.of(v); ok {
				out[v] = r.ranges[n]
			}
		}
	}
	return out
}

func TestRangeSigmaRefinement(t *testing.T) {
	m, r := analyzeSrc(t, `
int f(int a) {
  if (a < 100) {
    if (a > 0) {
      return a;
    }
  }
  return 0;
}
`)
	f := m.FuncByName("f")
	// The innermost returned value sits under a<100 and a>0: [1, 99].
	var deepest *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpSigma && in.OnTrue {
			if src, ok := in.Args[0].(*ir.Instr); ok && src.Op == ir.OpSigma {
				deepest = in
			}
		}
		return true
	})
	if deepest == nil {
		t.Fatalf("no nested sigma:\n%s", f)
	}
	iv := r.Range(deepest)
	if iv.Lo != 1 || iv.Hi != 99 {
		t.Errorf("nested refinement = %v, want [1, 99]", iv)
	}
}

func TestRangeInterprocedural(t *testing.T) {
	m, r := analyzeSrc(t, `
int callee(int x) { return x + 1; }

int main() {
  int a = callee(10);
  int b = callee(20);
  return a + b;
}
`)
	callee := m.FuncByName("callee")
	p := callee.Params[0]
	iv := r.Range(p)
	if iv.Lo != 10 || iv.Hi != 20 {
		t.Errorf("parameter pseudo-phi range = %v, want [10, 20]", iv)
	}
	mainFn := m.FuncByName("main")
	ret := instrByOp(mainFn, ir.OpRet)
	riv := r.Range(ret.Args[0])
	if riv.Lo != 22 || riv.Hi != 42 {
		t.Errorf("call result propagation = %v, want [22, 42]", riv)
	}
}

func TestRangeEntryParamsTop(t *testing.T) {
	m, r := analyzeSrc(t, `int f(int x) { return x; }`)
	f := m.FuncByName("f")
	if iv := r.Range(f.Params[0]); !iv.IsTop() {
		t.Errorf("uncalled function's param = %v, want Top", iv)
	}
}

// walkSrc is a function that only calls itself; main does not call it,
// so it is an entry point reachable from outside the module.
const walkSrc = `
int walk(int n) {
  int a[10];
  a[n] = 1;
  if (n > 0) {
    return walk(n - 1);
  }
  return a[0];
}
int main() { return 0; }
`

func TestEntrySelfCallParamsTop(t *testing.T) {
	m, r := analyzeSrc(t, walkSrc)
	walk := m.FuncByName("walk")
	if iv := r.Range(walk.Params[0]); !iv.IsTop() {
		t.Errorf("self-only function's param = %v, want Top", iv)
	}
	// Nothing derived from the parameter may be empty.
	walk.Instrs(func(in *ir.Instr) bool {
		if in.HasResult() && ir.IsInt(in.Typ) && r.Range(in).IsEmpty() {
			t.Errorf("%s = [], want a sound interval", in)
		}
		return true
	})

	// Called from main, the parameter is bound to the call sites.
	m, r = analyzeSrc(t, strings.Replace(walkSrc, "return 0;", "return walk(5);", 1))
	if iv := r.Range(m.FuncByName("walk").Params[0]); iv.IsTop() || iv.IsEmpty() || iv.Hi != 5 {
		t.Errorf("param of walk called with 5 = %v, want hi 5", iv)
	}
}

func TestEntryCycleParamsTop(t *testing.T) {
	const cycle = `
int ping(int x) { if (x > 0) { return pong(x - 1); } return 0; }
int pong(int y) { if (y > 0) { return ping(y - 1); } return 1; }
`
	m, r := analyzeSrc(t, cycle)
	for _, name := range []string{"ping", "pong"} {
		if iv := r.Range(m.FuncByName(name).Params[0]); !iv.IsTop() {
			t.Errorf("%s param in an uncalled 2-cycle = %v, want Top", name, iv)
		}
	}

	// Entered from main, the cycle's parameters are bounded.
	m, r = analyzeSrc(t, cycle+"int main() { return ping(3); }\n")
	want := map[string]Interval{"ping": {0, 3}, "pong": {0, 2}}
	for _, name := range []string{"ping", "pong"} {
		if iv := r.Range(m.FuncByName(name).Params[0]); iv != want[name] {
			t.Errorf("%s param in a 2-cycle entered with 3 = %v, want %v", name, iv, want[name])
		}
	}
}

func TestRangeRecursion(t *testing.T) {
	// Recursion must terminate via widening and stay sound.
	_, r := analyzeSrc(t, `
int fact(int n) {
  if (n <= 1) return 1;
  return n * fact(n - 1);
}

int main() { return fact(10); }
`)
	_ = r // reaching here without divergence is the test
}

func TestStrictSignPredicates(t *testing.T) {
	m, r := analyzeSrc(t, `
int f(int n) {
  if (n > 0) {
    return n;
  }
  return 0 - n;
}
`)
	f := m.FuncByName("f")
	var pos *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpSigma && in.OnTrue {
			pos = in
		}
		return true
	})
	if pos == nil {
		t.Fatal("no sigma")
	}
	if !r.IsStrictlyPositive(pos) {
		t.Errorf("sigma under n>0 not strictly positive: %v", r.Range(pos))
	}
	if r.IsStrictlyNegative(pos) {
		t.Error("positive sigma reported negative")
	}
	if !r.IsNonNegative(pos) {
		t.Error("positive sigma not non-negative")
	}
	if r.IsStrictlyPositive(f.Params[0]) {
		t.Error("unconstrained parameter reported positive")
	}
}

func TestRangeConstsDirect(t *testing.T) {
	r := Empty()
	if got := r.Range(ir.ConstInt(-7)); !got.Eq(Point(-7)) {
		t.Errorf("const range = %v", got)
	}
	if !r.IsStrictlyNegative(ir.ConstInt(-7)) {
		t.Error("negative const not detected")
	}
	if !r.IsStrictlyPositive(ir.ConstInt(3)) {
		t.Error("positive const not detected")
	}
}
