package minic

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ssa"
)

// FuzzParseProgram hardens the mini-C lexer and parser against
// arbitrary input: they must never panic, and any accepted program
// must survive the printer round trip (print, reparse, reprint —
// byte-identical) and either lower cleanly or fail with an error, not
// a panic. A program that lowers must come out of LowerProgram exactly
// as ssa.Promote leaves its memory form (LowerToMemory), with nothing
// left for Promote. Nesting is bounded, so no input can exhaust the
// stack, and the printer nests no deeper than its input, so every
// accepted program reprints within the bound; the seeds at the bound
// and the long chains check that. Seeds live in
// testdata/fuzz/FuzzParseProgram alongside the f.Add literals.
func FuzzParseProgram(f *testing.F) {
	f.Add("int main(void) { return 0; }")
	f.Add(`int g[4];
int f(int *p, int n) {
  int i;
  for (i = 0; i < n; i++) { p[i] = i; }
  return p[0];
}
int main(void) {
  int x = 1, *q = &x;
  do { x += f(g, 4); } while (x < 9);
  if (x > 3) { return *q; } else { return (1, 2); }
}`)
	f.Add("int main(void) { int *m = malloc(8); *m = -~!3; return *m; }")
	f.Add("int main(void) { for (int i = 0, j = 1; ; ) { break; } return 0; }")
	f.Add("int x = ")
	f.Add("int main(void) { 0x1g; }")
	f.Add("/* unterminated")
	f.Add("int main(void) { return " + strings.Repeat("- ", maxNesting-2) + "1; }")
	f.Add("int main(void) { int x; " + strings.Repeat("x = ", maxNesting-2) + "0; return x; }")
	f.Add("int main(void) { int x = 1; return x" + strings.Repeat(" - x", maxNesting) + "; }")
	f.Add("int main(void) { int x = 1; x" + strings.Repeat(" - x", maxNesting) + "; return x; }")
	f.Add("int main(void) { " + strings.Repeat("if (1) ", maxNesting-2) + "return 0; }")
	f.Add("int main(void) { int x = 1; " + strings.Repeat("if (x == 2) x = 3; else ", maxNesting) + "x = 4; return x; }")
	f.Add("int main(void) { return 18446744073709551615 + -9223372036854775808; }")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseProgram(src)
		if err != nil {
			return
		}
		out1 := PrintProgram(prog)
		prog2, err := ParseProgram(out1)
		if err != nil {
			t.Fatalf("printed source does not reparse: %v\ninput:\n%q\nprinted:\n%s", err, src, out1)
		}
		if out2 := PrintProgram(prog2); out1 != out2 {
			t.Fatalf("printer not a fixpoint:\ninput:\n%q\n--- first ---\n%s--- second ---\n%s", src, out1, out2)
		}
		// Lowering may reject semantically bogus programs, but only
		// with an error, the same in both forms. A program that lowers
		// comes out as promoting its memory form leaves it, and
		// promoting it again changes nothing.
		m, err := LowerProgram("fuzz", prog)
		mem, merr := LowerToMemory("fuzz", prog)
		if fmt.Sprint(err) != fmt.Sprint(merr) {
			t.Fatalf("LowerProgram error %v, LowerToMemory error %v\ninput:\n%q", err, merr, src)
		}
		if err != nil {
			return
		}
		for _, f := range mem.Funcs {
			ssa.Promote(f)
		}
		if got, want := m.String(), mem.String(); got != want {
			t.Fatalf("LowerProgram differs from promoting LowerToMemory\ninput:\n%q\n--- promoted ---\n%s--- lowered ---\n%s", src, want, got)
		}
		// Promote finds nothing left to promote.
		for _, f := range m.Funcs {
			if n := ssa.Promote(f); n != 0 {
				t.Fatalf("Promote promoted %d allocas of @%s after LowerProgram\ninput:\n%q", n, f.FName, src)
			}
		}
	})
}
