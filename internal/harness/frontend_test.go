package harness

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// The frontend must convert every malformed input into an error —
// through the parser's own diagnostics or, failing that, through the
// harness's containment — and never let a raw panic escape.

var badMiniC = []struct {
	name, src string
}{
	{"empty", ""},
	{"garbage", "@@@@ ;;;; ((((("},
	{"unterminated-func", "int f(int x) {"},
	{"missing-semicolon", "int f() { int x x = 1; return x; }"},
	{"undefined-var", "int f() { return nothere; }"},
	{"bad-call-arity", "int g(int a, int b) { return a; } int f() { return g(1); }"},
	{"unknown-callee", "int f() { return mystery(1, 2); }"},
	{"assign-to-literal", "int f() { 3 = 4; return 0; }"},
	{"stray-brace", "int f() { return 0; } }"},
	{"type-soup", "void void f(int int x) { return; }"},
	{"unterminated-comment", "int f() { /* no end return 0; }"},
	{"deref-int", "int f() { int x; x = 1; return *x; }"},
	{"for-garbage", "int f() { for (;;;;) {} return 0; }"},
	{"call-void-in-expr", "void g() { return; } int f() { return g() + 1; }"},
	{"huge-nesting", strings.Repeat("int f() { if (1) {", 1) + strings.Repeat("{", 500)},
}

func TestCompileMalformedInputNeverPanics(t *testing.T) {
	for _, tc := range badMiniC {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := New(Config{})
			m, err := p.Compile("bad", tc.src)
			if err == nil && m == nil {
				t.Fatal("nil module with nil error")
			}
			if err == nil {
				// Some inputs may legitimately parse (e.g. an odd but
				// valid construct); what matters is no escaped panic
				// and an analyzable module.
				if _, aerr := p.Analyze(m); aerr != nil {
					t.Fatalf("analyze after tolerated parse failed: %v", aerr)
				}
				return
			}
			if !strings.Contains(err.Error(), "stage") &&
				!strings.Contains(err.Error(), "minic") &&
				!strings.Contains(err.Error(), "line") {
				t.Fatalf("error carries no diagnostic context: %v", err)
			}
		})
	}
}

var badIR = []struct {
	name, src string
}{
	{"empty", ""},
	{"garbage", "!!!! not ir at all"},
	{"half-func", "func @f(i64 %x) {"},
	{"bad-op", "func @f() {\nentry:\n  %v = frobnicate 1, 2\n  ret\n}"},
	{"undefined-value", "func @f() {\nentry:\n  %v = add %ghost, 1\n  ret %v\n}"},
	{"dup-name", "func @f() {\nentry:\n  %v = add 1, 1\n  %v = add 2, 2\n  ret %v\n}"},
	{"no-terminator", "func @f() {\nentry:\n  %v = add 1, 1\n}"},
}

func TestParseIRMalformedInputNeverPanics(t *testing.T) {
	for _, tc := range badIR {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := New(Config{})
			m, err := p.ParseIR(tc.src)
			if err == nil && m == nil {
				t.Fatal("nil module with nil error")
			}
			if err == nil {
				if _, aerr := p.Analyze(m); aerr != nil {
					t.Fatalf("analyze after tolerated parse failed: %v", aerr)
				}
			}
		})
	}
}

// TestParseIRMistypedCall: textual IR may give a call a pointer type
// while its callee returns an integer, and ir.Verify accepts it. Both
// range passes must analyze such a module without a contained failure
// and report the untracked call as Top.
func TestParseIRMistypedCall(t *testing.T) {
	p := New(Config{})
	m, err := p.ParseIR(`module "m"

func @f(i64 %x) i64 {
entry:
  %y = add %x, 1
  ret %y
}

func @main() i64 {
entry:
  %t1 = call i64* @f(3)
  ret 0
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Report().Failures {
		if f.Stage == StageRangesPre || f.Stage == StageRanges {
			t.Errorf("range stage failed: %+v", f)
		}
	}
	var call ir.Value
	m.FuncByName("main").Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpCall {
			call = in
		}
		return true
	})
	if iv := res.Ranges.Range(call); !iv.IsTop() {
		t.Errorf("Range(%%t1) = %v, want Top", iv)
	}
}

// TestFrontendFaultsBecomeErrors proves the parse and lower guards
// turn injected panics into StageFailure errors rather than crashes.
func TestFrontendFaultsBecomeErrors(t *testing.T) {
	for _, stage := range []string{StageParse, StageLower} {
		stage := stage
		t.Run(stage, func(t *testing.T) {
			p := New(Config{Fault: &FaultConfig{Stage: stage}})
			_, err := p.Compile("t", "int f() { return 0; }")
			if err == nil {
				t.Fatalf("injected %s fault produced no error", stage)
			}
			if !strings.Contains(err.Error(), stage) ||
				!strings.Contains(err.Error(), "injected fault") {
				t.Fatalf("error does not describe the contained panic: %v", err)
			}
		})
	}
}
