package minic

import (
	"fmt"
	"testing"

	"repro/internal/csmith"
	"repro/internal/interp"
)

// samples cover every statement and expression form the printer
// handles, including the ones csmith never generates.
var printSamples = []string{
	`int g;
int a[4];
int func_1(void) {
  int x = 1, *p = &x, y;
  y = 0;
  a[0] = x + 2 * 3;
  for (int i = 0; i < 4; i++) {
    a[i] = a[i] + 1;
    if (a[i] > 2) { g += 1; } else { g -= 1; }
  }
  while (x < 3) { x++; }
  do { x--; } while (x > 1);
  p = &y;
  *p = a[1] % 3;
  return *p + g;
}
int main(void) { return func_1(); }`,
	`int main(void) {
  int i = 0;
  int n = 0;
  for (; i < 10; ) {
    i += 1;
    if (i == 3) continue;
    if (i == 7) break;
    n = n + i;
  }
  return n;
}`,
	`int helper(int v, int *out) { *out = v * 2; return v; }
int main(void) {
  int r;
  helper(21, &r);
  int *m = malloc(8);
  *m = r;
  return *m;
}`,
	`int main(void) {
  int x = 5;
  ;
  { int y = -x; x = ~y + !y; }
  x = (1, 2);
  return x;
}`,
}

// TestPrintRoundTrip checks print∘parse is a projection: the printed
// source reparses, and reprinting the reparse is byte-identical (the
// printer reaches a fixpoint after one step).
func TestPrintRoundTrip(t *testing.T) {
	for i, src := range printSamples {
		t.Run(fmt.Sprintf("sample%d", i), func(t *testing.T) {
			roundTrip(t, fmt.Sprintf("sample%d", i), src)
		})
	}
}

// TestPrintRoundTripCsmith sweeps the round trip over generated
// programs — the inputs the reducer actually reprints.
func TestPrintRoundTripCsmith(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		seed := int64(7100 + i)
		src := csmith.Generate(csmith.Config{
			Seed: seed, MaxPtrDepth: 2 + i%5, Stmts: 20 + i%25,
			InjectOOB: i%4 == 3,
		})
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			roundTrip(t, fmt.Sprintf("seed%d", seed), src)
		})
	}
}

// TestPrintParens: the printer writes the parentheses a tree needs and
// no others, spaces prefix operators that would otherwise merge into
// one token, and prints literals that wrapped negative unsigned.
func TestPrintParens(t *testing.T) {
	for src, want := range map[string]string{
		"((a - b) - c)":            "a - b - c",
		"a - (b - c)":              "a - (b - c)",
		"(a * b) + c":              "a * b + c",
		"a * (b + c)":              "a * (b + c)",
		"(a = (b = c))":            "a = b = c",
		"(a = b) = c":              "(a = b) = c",
		"a || b = c":               "a || b = c",
		"-(-(-x))":                 "- - -x",
		"&(*p)":                    "& *p",
		"-(--x)":                   "- --x",
		"*(p++)":                   "*p++",
		"(*p)++":                   "(*p)++",
		"!(a < b)":                 "!(a < b)",
		"a / *p":                   "a / *p",
		"a - (-1)":                 "a - -1",
		"(a[(b, c)])[d]":           "a[b, c][d]",
		"f((a, b), (c = d))":       "f((a, b), c = d)",
		"((1, 2), 3)":              "1, 2, 3",
		"1, (2, 3)":                "1, (2, 3)",
		"x = (1, 2)":               "x = (1, 2)",
		"18446744073709551615 + 1": "18446744073709551615 + 1",
		"-9223372036854775808":     "-9223372036854775808",
	} {
		prog, err := ParseProgram("int main(void){ " + src + "; return 0; }")
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if got := ExprString(prog.Funcs[0].Body.Stmts[0].(*ExprStmt).X); got != want {
			t.Errorf("%s: printed %s, want %s", src, got, want)
		}
	}
	prog, err := ParseProgram("int main(void){ int x = (1, 2); if (x) x = 1; else if (x) x = 2; else x = 3; return x; }")
	if err != nil {
		t.Fatal(err)
	}
	want := `int main(void) {
  int x = (1, 2);
  if (x)
  {
    x = 1;
  }
  else if (x)
  {
    x = 2;
  }
  else
  {
    x = 3;
  }
  return x;
}
`
	if got := PrintProgram(prog); got != want {
		t.Errorf("printed\n%s\nwant\n%s", got, want)
	}
}

func roundTrip(t *testing.T, name, src string) {
	t.Helper()
	p1, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("parse original: %v", err)
	}
	out1 := PrintProgram(p1)
	p2, err := ParseProgram(out1)
	if err != nil {
		t.Fatalf("printed source does not reparse: %v\n%s", err, out1)
	}
	out2 := PrintProgram(p2)
	if out1 != out2 {
		t.Fatalf("printer not a fixpoint:\n--- first ---\n%s--- second ---\n%s", out1, out2)
	}

	// Semantic equivalence: both versions execute to the same result.
	m1, err := LowerProgram(name, p1)
	if err != nil {
		t.Fatalf("lower original: %v", err)
	}
	m2, err := LowerProgram(name, p2)
	if err != nil {
		t.Fatalf("lower printed: %v", err)
	}
	if m1.FuncByName("main") == nil {
		return
	}
	v1, err1 := interp.NewMachine(m1, interp.Options{}).Run("main")
	v2, err2 := interp.NewMachine(m2, interp.Options{}).Run("main")
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("execution outcomes differ: %v vs %v", err1, err2)
	}
	if err1 == nil && v1.I != v2.I {
		t.Fatalf("results differ: %d vs %d\nprinted:\n%s", v1.I, v2.I, out1)
	}
}
