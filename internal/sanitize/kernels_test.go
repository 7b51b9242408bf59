// Layer-separation kernels: each test compiles a mini-C program
// crafted so a specific prover layer is the cheapest (for the deeper
// layers: the only) one that can discharge the bounds proof, and
// asserts the diagnostic records exactly that layer. Together they
// show the stack is genuinely layered — in particular that the
// paper's LT solver proves accesses no intraprocedural layer can.
package sanitize_test

import (
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/sanitize"
)

// analyze compiles src through the hardened pipeline and runs the
// sanitizer on its results.
func analyze(t *testing.T, src string, interproc bool) (*harness.Result, *sanitize.Report) {
	t.Helper()
	p := harness.New(harness.Config{Interprocedural: interproc})
	res, err := p.CompileAndAnalyze("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return res, res.Sanitize()
}

// findOp returns the sole instruction with op in fn, failing the test
// when the count is not exactly one.
func findOp(t *testing.T, m *ir.Module, fn string, op ir.Op) *ir.Instr {
	t.Helper()
	f := m.FuncByName(fn)
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	var found *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == op {
			if found != nil {
				t.Fatalf("%s: multiple %s instructions", fn, op)
			}
			found = in
		}
		return true
	})
	if found == nil {
		t.Fatalf("%s: no %s instruction", fn, op)
	}
	return found
}

// wantDiag asserts the (in, kind) diagnostic has the given verdict
// and layer.
func wantDiag(t *testing.T, rep *sanitize.Report, in *ir.Instr, k sanitize.Kind, v sanitize.Verdict, layer string) {
	t.Helper()
	d, ok := rep.Find(in, k)
	if !ok {
		t.Fatalf("no %s diagnostic for %s", k, in)
	}
	if d.Verdict != v || d.Layer != layer {
		t.Errorf("%s on %s = %s/%s, want %s/%s", k, in, d.Verdict, d.Layer, v, layer)
	}
}

// K1: constant and loop-bounded indices — the interval layer alone
// settles both directions.
func TestKernelInterval(t *testing.T) {
	src := `
int a[10];

int k1(void) {
  int i;
  a[3] = 1;
  for (i = 0; i < 10; i++) {
    a[i] = i;
  }
  return a[3];
}
`
	res, rep := analyze(t, src, false)
	f := res.Module.FuncByName("k1")
	stores := 0
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpStore {
			stores++
			wantDiag(t, rep, in, sanitize.KindBounds, sanitize.Safe, sanitize.LayerInterval)
			wantDiag(t, rep, in, sanitize.KindNull, sanitize.Safe, sanitize.LayerNullness)
			wantDiag(t, rep, in, sanitize.KindUninit, sanitize.Safe, sanitize.LayerDirect)
		}
		return true
	})
	if stores != 2 {
		t.Fatalf("stores = %d, want 2", stores)
	}
	wantDiag(t, rep, findOp(t, res.Module, "k1", ir.OpLoad), sanitize.KindBounds, sanitize.Safe, sanitize.LayerInterval)
}

// K1b: a constant index provably outside the object — the interval
// layer proves the access traps whenever reached.
func TestKernelIntervalUnsafe(t *testing.T) {
	src := `
int a[10];

int bad(int x) {
  if (x > 5) {
    a[12] = 1;
  }
  return 0;
}
`
	res, rep := analyze(t, src, false)
	in := findOp(t, res.Module, "bad", ir.OpStore)
	wantDiag(t, rep, in, sanitize.KindBounds, sanitize.Unsafe, sanitize.LayerInterval)
}

// K1c: a function that only calls itself may be called from outside
// the module with any argument, so its parameter is unconstrained and
// the store is not proved to trap. With main calling walk(5) the
// parameter is bounded and the interval layer proves the store safe.
func TestKernelSelfCallNotUnsafe(t *testing.T) {
	const walk = `
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
	res, rep := analyze(t, walk, false)
	in := findOp(t, res.Module, "walk", ir.OpStore)
	if d, ok := rep.Find(in, sanitize.KindBounds); !ok || d.Verdict == sanitize.Unsafe {
		t.Errorf("bounds on %s = %+v, want not unsafe", in, d)
	}
	res, rep = analyze(t, strings.Replace(walk, "return 0;", "return walk(5);", 1), false)
	in = findOp(t, res.Module, "walk", ir.OpStore)
	wantDiag(t, rep, in, sanitize.KindBounds, sanitize.Safe, sanitize.LayerInterval)
}

// K2: the bound on the index flows through a strict comparison with
// another variable (i < j, j < 100). Intervals cannot relate i to j;
// the ABCD graph proves i <= j-1 and borrows j's cap from the sibling
// sigma renaming.
func TestKernelABCD(t *testing.T) {
	src := `
int a[100];
int g_i;
int g_j;

int k2(void) {
  int i = g_i;
  int j = g_j;
  if (i < j) {
    if (j < 100) {
      if (i >= 0) {
        a[i] = 1;
      }
    }
  }
  return 0;
}
`
	res, rep := analyze(t, src, false)
	in := findOp(t, res.Module, "k2", ir.OpStore)
	wantDiag(t, rep, in, sanitize.KindBounds, sanitize.Safe, sanitize.LayerABCD)
}

// K3: the bound flows through a variable addition (w = i + s with
// s > 0 implies i < w). ABCD only edges constant offsets, so the
// Pentagon domain — whose transfer covers x = y + z — is the first
// layer that can prove the access.
func TestKernelPentagon(t *testing.T) {
	src := `
int a[100];
int g_i;
int g_s;

int k3(void) {
  int i = g_i;
  int s = g_s;
  if (i >= 0) {
    if (s > 0) {
      int w = i + s;
      if (w < 100) {
        a[i] = 1;
      }
    }
  }
  return 0;
}
`
	res, rep := analyze(t, src, false)
	in := findOp(t, res.Module, "k3", ir.OpStore)
	wantDiag(t, rep, in, sanitize.KindBounds, sanitize.Safe, sanitize.LayerPentagon)
}

// kernelLTSrc separates the comparison (in main) from the access (in
// kernel): no intraprocedural layer can see i < n, but the
// interprocedural LT solver seeds the param pair from the call site.
const kernelLTSrc = `
int g_x;
int g_n;

int kernel(int i, int n) {
  int a[100];
  if (n <= 100) {
    if (i >= 0) {
      return a[i];
    }
  }
  return 0;
}

int main() {
  int x = g_x;
  int nn = g_n;
  if (x < nn) {
    return kernel(x, nn);
  }
  return 0;
}
`

// K4: only the LT layer (interprocedural mode) proves the access.
func TestKernelLT(t *testing.T) {
	res, rep := analyze(t, kernelLTSrc, true)
	in := findOp(t, res.Module, "kernel", ir.OpLoad)
	wantDiag(t, rep, in, sanitize.KindBounds, sanitize.Safe, sanitize.LayerLT)
}

// K4 ablation: the same program without the interprocedural seeds is
// unprovable — the LT column in the experiments is real signal.
func TestKernelLTAblation(t *testing.T) {
	res, rep := analyze(t, kernelLTSrc, false)
	in := findOp(t, res.Module, "kernel", ir.OpLoad)
	wantDiag(t, rep, in, sanitize.KindBounds, sanitize.Unknown, sanitize.LayerNone)
}

// K5: the LOWER bound needs a relational proof. The compare i > j
// precedes j >= 0, so the interval refinement at the compare sees an
// unbounded j and learns nothing — only ABCD's j <= i-1 edge,
// combined with the later renaming's j >= 0 cap, proves i >= 1. The
// upper bound comes from the i < 100 sigma (interval), so the
// recorded layer is the max of the two: abcd.
func TestKernelABCDLowerBound(t *testing.T) {
	src := `
int a[100];
int g_i;
int g_j;

int k5(void) {
  int i = g_i;
  int j = g_j;
  if (i < 100) {
    if (i > j) {
      if (j >= 0) {
        a[i] = 1;
      }
    }
  }
  return 0;
}
`
	res, rep := analyze(t, src, false)
	in := findOp(t, res.Module, "k5", ir.OpStore)
	wantDiag(t, rep, in, sanitize.KindBounds, sanitize.Safe, sanitize.LayerABCD)
}

// kernelLTLowerSrc puts the lower-bound comparison in the caller:
// main guarantees nn < x, so inside kernel only the interprocedural
// LT seed j < i proves i >= 1 (j's own sigma provides the >= 0 cap).
const kernelLTLowerSrc = `
int g_x;
int g_n;

int kernel(int i, int j) {
  int a[100];
  if (i < 100) {
    if (j >= 0) {
      return a[i];
    }
  }
  return 0;
}

int main() {
  int x = g_x;
  int nn = g_n;
  if (nn < x) {
    return kernel(x, nn);
  }
  return 0;
}
`

// K6: lower bound provable only by the LT layer, upper by interval.
func TestKernelLTLowerBound(t *testing.T) {
	res, rep := analyze(t, kernelLTLowerSrc, true)
	in := findOp(t, res.Module, "kernel", ir.OpLoad)
	wantDiag(t, rep, in, sanitize.KindBounds, sanitize.Safe, sanitize.LayerLT)

	res2, rep2 := analyze(t, kernelLTLowerSrc, false)
	in2 := findOp(t, res2.Module, "kernel", ir.OpLoad)
	wantDiag(t, rep2, in2, sanitize.KindBounds, sanitize.Unknown, sanitize.LayerNone)
}

// Malloc resolution: constant-size malloc sizes exactly as the
// interpreter (bytes / element size, zero rounds up to one cell).
func TestKernelMalloc(t *testing.T) {
	src := `
int ok(void) {
  int *p = malloc(80);
  p[9] = 1;
  return 0;
}

int bad(void) {
  int *p = malloc(80);
  p[10] = 1;
  return 0;
}
`
	res, rep := analyze(t, src, false)
	wantDiag(t, rep, findOp(t, res.Module, "ok", ir.OpStore),
		sanitize.KindBounds, sanitize.Safe, sanitize.LayerInterval)
	wantDiag(t, rep, findOp(t, res.Module, "ok", ir.OpStore),
		sanitize.KindNull, sanitize.Safe, sanitize.LayerNullness)
	wantDiag(t, rep, findOp(t, res.Module, "bad", ir.OpStore),
		sanitize.KindBounds, sanitize.Unsafe, sanitize.LayerInterval)
}

// Nullness: a branch on p != 0 / p == 0 classifies the guarded
// dereference via the sigma's branch fact.
func TestKernelNullness(t *testing.T) {
	src := `
int deref_nonnull(int* p) {
  if (p != 0) {
    return *p;
  }
  return 0;
}

int deref_null(int* p) {
  if (p == 0) {
    return *p;
  }
  return 0;
}

int deref_unknown(int* p) {
  return *p;
}
`
	res, rep := analyze(t, src, false)
	wantDiag(t, rep, findOp(t, res.Module, "deref_nonnull", ir.OpLoad),
		sanitize.KindNull, sanitize.Safe, sanitize.LayerNullness)
	wantDiag(t, rep, findOp(t, res.Module, "deref_null", ir.OpLoad),
		sanitize.KindNull, sanitize.Unsafe, sanitize.LayerNullness)
	wantDiag(t, rep, findOp(t, res.Module, "deref_unknown", ir.OpLoad),
		sanitize.KindNull, sanitize.Unknown, sanitize.LayerNone)
}

// Uninit: reading a never-assigned local leaves an undef operand the
// direct check flags; the bounds proof is independent of it.
func TestKernelUninit(t *testing.T) {
	src := `
int a[10];

int uninit(void) {
  int x;
  a[3] = x;
  return 0;
}
`
	res, rep := analyze(t, src, false)
	in := findOp(t, res.Module, "uninit", ir.OpStore)
	wantDiag(t, rep, in, sanitize.KindUninit, sanitize.Unsafe, sanitize.LayerDirect)
	wantDiag(t, rep, in, sanitize.KindBounds, sanitize.Safe, sanitize.LayerInterval)
}
