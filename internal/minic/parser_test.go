package minic

import (
	"reflect"
	"strings"
	"testing"
)

// deepInputs are 1 MiB sources that nest without bound: they must be
// parse errors, not a fatal stack overflow.
func deepInputs() map[string]string {
	const mib = 1 << 20
	return map[string]string{
		"parens": "int main(void){return " + strings.Repeat("(", mib) + "0;}",
		"braces": "int main(void){" + strings.Repeat("{", mib),
		"minus":  "int main(void){return " + strings.Repeat("- ", mib/2) + "0;}",
		"index":  "int main(void){int a[1]; return " + strings.Repeat("a[", mib/2) + "0;}",
		"calls":  "int main(void){return " + strings.Repeat("f(", mib/2) + "0;}",
		"assign": "int main(void){int x; " + strings.Repeat("x=", mib/2) + "0; return x;}",
		"ifs":    "int main(void){" + strings.Repeat("if(1)", mib/5) + "return 0;}",
	}
}

func TestNestingBoundParse(t *testing.T) {
	for name, src := range deepInputs() {
		_, err := ParseProgram(src)
		if err == nil || !strings.Contains(err.Error(), "minic: line 1: nesting deeper than 1000 levels") {
			t.Errorf("%s: err = %v, want the nesting bound", name, err)
		}
	}
}

// TestNestingAtBound: a program exactly at the bound compiles and one
// level deeper fails. The function body's statement and the return
// expression are two levels, so 998 parentheses, unary operators,
// chained assignments or nested ifs (braced or not) reach the bound;
// nested blocks count one level each.
func TestNestingAtBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  func(n int) string
		at   int
	}{
		{"parens", func(n int) string {
			return "int main(void){return " + strings.Repeat("(", n) + "0" + strings.Repeat(")", n) + ";}"
		}, maxNesting - 2},
		{"minus", func(n int) string {
			return "int main(void){return " + strings.Repeat("- ", n) + "1;}"
		}, maxNesting - 2},
		{"braces", func(n int) string {
			return "int main(void){" + strings.Repeat("{", n) + strings.Repeat("}", n) + "return 0;}"
		}, maxNesting},
		{"ifs", func(n int) string {
			return "int main(void){" + strings.Repeat("if(1)", n) + "return 0;}"
		}, maxNesting - 2},
		{"braced-ifs", func(n int) string {
			return "int main(void){" + strings.Repeat("if(1){", n) + "return 0;" + strings.Repeat("}", n) + "return 1;}"
		}, maxNesting - 2},
		{"assign", func(n int) string {
			return "int main(void){int x; " + strings.Repeat("x=", n) + "0; return x;}"
		}, maxNesting - 2},
	} {
		if _, err := Compile("at", tc.src(tc.at)); err != nil {
			t.Errorf("%s at the bound: %v", tc.name, err)
		}
		if _, err := Compile("past", tc.src(tc.at+1)); err == nil || !strings.Contains(err.Error(), "nesting deeper") {
			t.Errorf("%s past the bound: err = %v", tc.name, err)
		}
	}
}

// TestLongChainCompiles: a left-associative chain and an else-if chain
// are built in a loop, so their length is not bounded by the nesting
// limit.
func TestLongChainCompiles(t *testing.T) {
	for name, src := range map[string]string{
		"sub":    "int main(void){int x = 1; return x" + strings.Repeat("-x", 50000) + ";}",
		"elseif": "int main(void){int x = 1; " + strings.Repeat("if(x==2)x=3;else ", 5000) + "x=4; return x;}",
	} {
		if _, err := Compile(name, src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestPrecedence: each binary level binds tighter than the one before
// it and associates to the left; assignment associates to the right;
// unary operators bind tighter than any binary one. Each source must
// parse to the same tree as its fully parenthesized form.
func TestPrecedence(t *testing.T) {
	for src, want := range map[string]string{
		"a || b && c | d ^ e & f == g < h << i + j * k": "(a || (b && (c | (d ^ (e & (f == (g < (h << (i + (j * k))))))))))",
		"a * b + c << d < e == f & g ^ h | i && j || k": "((((((((((a * b) + c) << d) < e) == f) & g) ^ h) | i) && j) || k)",
		"a - b - c":             "((a - b) - c)",
		"a / b % c * d":         "(((a / b) % c) * d)",
		"a << b >> c":           "((a << b) >> c)",
		"a < b <= c > d >= e":   "((((a < b) <= c) > d) >= e)",
		"a == b != c":           "((a == b) != c)",
		"a = b += c <<= d":      "(a = (b += (c <<= d)))",
		"-a * !b - ~c":          "(((-a) * (!b)) - (~c))",
		"*p++ + ++*q":           "((*(p++)) + (++(*q)))",
		"a[b + c][d] - f(e, g)": "(a[(b + c)][d] - f(e, g))",
		"+a - (b - c)":          "(a - (b - c))",
	} {
		got, err := ParseProgram("int main(void){ " + src + "; return 0; }")
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		exp, err := ParseProgram("int main(void){ " + want + "; return 0; }")
		if err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s: parsed as %s, want %s", src, PrintProgram(got), want)
		}
	}
}
