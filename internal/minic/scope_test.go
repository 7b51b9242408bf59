package minic_test

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/minic"
)

// TestLowerScopes runs programs whose result depends on which
// declaration each name resolves to, through the interpreter, and
// pins the error of every redeclaration in one scope.
func TestLowerScopes(t *testing.T) {
	cases := []struct {
		name, src string
		want      int64
		err       string
	}{
		{name: "nested shadowing restored on block exit", src: `
int main() {
  int x = 1;
  int r = 0;
  {
    int x = 2;
    r = r * 10 + x;
    {
      int x = 3;
      r = r * 10 + x;
    }
    r = r * 10 + x;
  }
  return r * 10 + x;
}`, want: 2321},
		{name: "for init scoped to its loop", src: `
int main() {
  int i = 7;
  int s = 0;
  for (int i = 0; i < 3; i++) {
    int i = 5;
    s += i;
  }
  return s * 10 + i;
}`, want: 157},
		{name: "for init gone after the loop", src: `
int main() {
  for (int k = 0; k < 3; k++) {}
  return k;
}`, err: "minic: line 4: undefined variable k"},
		{name: "sibling blocks reuse a name", src: `
int main() {
  int r = 0;
  { int y = 4; r += y; }
  { int y = 5; r = r * 10 + y; }
  { int *y = malloc(8); *y = 6; r = r * 10 + *y; }
  return r;
}`, want: 456},
		{name: "parameter shadowed by a body local", src: `
int f(int n) {
  int r = n;
  {
    int n = 9;
    r = r * 10 + n;
  }
  return r * 10 + n;
}
int main() { return f(1); }`, want: 191},
		{name: "parameter shadowed in the body's own scope", src: `
int f(int n) { int n = 9; return n; }
int main() { return f(1); }`, want: 9},
		{name: "local shadows a global", src: `
int g;
int main() {
  g = 5;
  int r = 0;
  { int g = 2; r = g; }
  return r * 10 + g;
}`, want: 25},
		{name: "redeclared in one scope", src: `
int main() {
  int x = 1;
  { int y; int y; }
  return x;
}`, err: "minic: line 4: y redeclared in this scope"},
		{name: "redeclared after an inner shadow closed", src: `
int main() {
  int x = 1;
  { int x = 2; }
  int x = 3;
  return x;
}`, err: "minic: line 5: x redeclared in this scope"},
		{name: "parameter redeclared", src: `
int f(int a, int a) { return a; }
int main() { return f(1, 2); }`, err: "minic: line 2: a redeclared in this scope"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := minic.Compile("scopes", tc.src)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("Compile error %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := interp.NewMachine(m, interp.Options{}).Run("main")
			if err != nil {
				t.Fatal(err)
			}
			if got.I != tc.want {
				t.Errorf("main() = %s, want %d", got, tc.want)
			}
		})
	}
}
