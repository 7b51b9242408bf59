package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/csmith"
	"repro/internal/essa"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/rangeanal"
	"repro/internal/synth"
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

// TestCompileDeepNestingIsAnError: 1 MiB of nesting is a contained
// parse failure. The parser recurses once per level, and a Go stack
// overflow would kill the process rather than panic.
func TestCompileDeepNestingIsAnError(t *testing.T) {
	const mib = 1 << 20
	for name, src := range map[string]string{
		"parens": "int main(void){return " + strings.Repeat("(", mib) + "0;}",
		"braces": "int main(void){" + strings.Repeat("{", mib),
		"minus":  "int main(void){return " + strings.Repeat("- ", mib/2) + "0;}",
	} {
		_, err := New(Config{}).Compile(name, src)
		if err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
			t.Errorf("%s: err = %v, want a nesting parse error", name, err)
		}
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

// frontendInput is one source the pinned frontend test compiles.
type frontendInput struct{ name, src string }

// frontendGroups returns the pinned test's inputs by group, in a fixed
// order. The short set (-short or -race) is a smaller selection of the
// same generators, not a prefix of the full one.
func frontendGroups(short bool) (groups []string, inputs map[string][]frontendInput) {
	progs := append(corpus.Spec(), corpus.TestSuite(100)...)
	synthFuncs, seeds, mutants := 2000, int64(300), 20000
	if short {
		progs = append(corpus.Spec()[:8], corpus.TestSuite(8)...)
		synthFuncs, seeds, mutants = 300, 40, 1000
	}
	inputs = map[string][]frontendInput{}
	for _, p := range progs {
		inputs["corpus"] = append(inputs["corpus"], frontendInput{p.Name, p.Source})
	}
	for _, s := range []int64{1, 2} {
		inputs["synth"] = append(inputs["synth"], frontendInput{
			fmt.Sprintf("synth-%d-%d", synthFuncs, s), synth.Module(synthFuncs, s)})
	}
	for seed := int64(1); seed <= seeds; seed++ {
		inputs["csmith"] = append(inputs["csmith"], frontendInput{
			fmt.Sprintf("csmith-%d", seed),
			csmith.Generate(csmith.Config{Seed: seed, MaxPtrDepth: 2 + int(seed%4)})})
	}
	pool := append(slices.Clone(inputs["corpus"]), inputs["csmith"]...)
	for i := 0; i < mutants; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		base := pool[rng.Intn(len(pool))]
		inputs["mutant"] = append(inputs["mutant"], frontendInput{
			fmt.Sprintf("mutant-%d-%s", i, base.name), mutate(rng, base.src)})
	}
	return []string{"corpus", "synth", "csmith", "mutant"}, inputs
}

// mutate applies one to three random edits to src: delete, duplicate
// or copy elsewhere a short span, insert a byte the lexer rejects or
// accepts only as a Latin-1 letter, or open a comment.
func mutate(rng *rand.Rand, src string) string {
	b := []byte(src)
	for k := 1 + rng.Intn(3); k > 0; k-- {
		pos := rng.Intn(len(b) + 1)
		end := min(len(b), pos+1+rng.Intn(16))
		switch rng.Intn(5) {
		case 0:
			b = slices.Delete(b, pos, end)
		case 1:
			b = slices.Insert(b, end, slices.Clone(b[pos:end])...)
		case 2:
			at := rng.Intn(len(b) + 1)
			b = slices.Insert(b, at, slices.Clone(b[pos:end])...)
		case 3:
			b = slices.Insert(b, pos, "$`\x80\xe9"[rng.Intn(4)])
		case 4:
			b = slices.Insert(b, pos, []byte([]string{"/*", "//", "*/"}[rng.Intn(3)])...)
		}
	}
	return string(b)
}

// hashFrontend feeds every observable of the frontend on src into h:
// the parse error or every AST field (lines included), the
// LowerToMemory IR or its error, the Compile IR or its error, and the
// IR after sigma insertion, the pre-range pass and subtraction
// splitting. It returns the printed AST, or "" when src does not
// parse.
func hashFrontend(h io.Writer, name, src string) (printed string) {
	prog, err := minic.ParseProgram(src)
	if err != nil {
		fmt.Fprintf(h, "parse: %v\n", err)
		return ""
	}
	printed = minic.PrintProgram(prog)
	dumpAST(h, reflect.ValueOf(prog))
	if m, err := minic.LowerToMemory(name, prog); err != nil {
		fmt.Fprintf(h, "lower: %v\n", err)
	} else {
		io.WriteString(h, m.String())
	}
	m, err := minic.Compile(name, src)
	if err != nil {
		fmt.Fprintf(h, "compile: %v\n", err)
		return printed
	}
	io.WriteString(h, m.String())
	for _, f := range m.Funcs {
		essa.InsertSigmas(f)
	}
	pre := rangeanal.Analyze(m)
	for _, f := range m.Funcs {
		essa.SplitSubtractions(f, pre)
	}
	io.WriteString(h, m.String())
	return printed
}

// dumpAST writes every field of an AST value, recursively.
func dumpAST(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		dumpAST(w, v.Elem())
	case reflect.Struct:
		fmt.Fprintf(w, "%s{", v.Type().Name())
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(w, "%s:", v.Type().Field(i).Name)
			dumpAST(w, v.Field(i))
			io.WriteString(w, " ")
		}
		io.WriteString(w, "}")
	case reflect.Slice:
		io.WriteString(w, "[")
		for i := 0; i < v.Len(); i++ {
			dumpAST(w, v.Index(i))
			io.WriteString(w, " ")
		}
		io.WriteString(w, "]")
	default:
		fmt.Fprintf(w, "%v", v.Interface())
	}
}

// Digests of hashFrontend over each input group, chained in order.
// The frontend digests were recorded before the frontend was rewritten
// for linear time. The printed digests were recorded when the printer
// began to write only the parentheses a tree needs and else-if chains
// flat, so that a printed program nests no deeper than its source.
var (
	pinnedFrontend = map[string]string{
		"corpus": "017aae5ca41e90ef4e09c2f9a270800941638f07c77927962230632f4f68ed85",
		"synth":  "925678aa819e3b76adf0e63dc5a54c35ad0fb01a37c4a41bfadb33f914589e48",
		"csmith": "58d1e122811ebe588fb4ed8ae7ec23c4774b43008b55382a71e1ae222db3d7d5",
		"mutant": "68b4dfa627469d0725535708feb71b7b6da6b10c28dea9277446ce40e07f9e70",
	}
	pinnedFrontendShort = map[string]string{
		"corpus": "1cc7f819fc62cdd3335bd449aa1d77df9ecea65e3b567c02dde65d01d4fbb578",
		"synth":  "5fb348ecc56e8f23b2159d5194a75b90f3e94e0f8c466af3e2ec44ea2bb3fa78",
		"csmith": "6b28932ffd6477b4386e52f5582a4c8db544edaf98a8314320b93c448cbe9aa2",
		"mutant": "0b9d7e3801b6d499895ed8473c70f629b1352d0c01ffc1e27c802022f5046e52",
	}
	pinnedPrinted = map[string]string{
		"corpus": "b586eb7a6389344e11089b9f39e72c83f9dc62d6397596259946ff74c3e6166b",
		"synth":  "12282f80ca99540de5063a40cf8301df3f0be52132e2e27630833e1579f08d76",
		"csmith": "12ff5d8977ef9f6249b070c9a71482bee8c334e47142d24cd2d8b35b4891d9a0",
		"mutant": "59003cb26bc1cb07ec2db9dce28d6e846566242f0cf3707be121af2a8a5e05f0",
	}
	pinnedPrintedShort = map[string]string{
		"corpus": "d4a60c92b9e552ad43e154155b5c271787b1c52e9aeb4a8b56bc2dc1f9a38581",
		"synth":  "ce2d3942fe371b31d591f55dbaa971cb7cc585bb39c3cfd82977f9d8bcc59c5b",
		"csmith": "0e6284ea003ef7ef4b7ba7aec4524c223408441803ef51ffa1ac0c95bfb0f8c7",
		"mutant": "ade920aa5ac590a4f99efd3bf7b8787bcad8944e67c80f26417854e99ac64d31",
	}
)

// TestFrontendPinned: the lexer, parser, lowering, mem2reg and the
// e-SSA passes produce exactly the output they produced before the
// frontend was rewritten for linear time — the same ASTs with the
// same lines, the same errors, the same value names, block labels,
// instruction order and phi operand order. Every printed program
// reparses and reprints to itself.
func TestFrontendPinned(t *testing.T) {
	short := testing.Short() || raceEnabled
	want, wantPrinted := pinnedFrontend, pinnedPrinted
	if short {
		want, wantPrinted = pinnedFrontendShort, pinnedPrintedShort
	}
	groups, inputs := frontendGroups(short)
	for _, g := range groups {
		g := g
		t.Run(g, func(t *testing.T) {
			t.Parallel()
			chain, printedChain := sha256.New(), sha256.New()
			for _, in := range inputs[g] {
				h := sha256.New()
				printed := hashFrontend(h, in.name, in.src)
				io.WriteString(chain, in.name+"\x00")
				chain.Write(h.Sum(nil))
				io.WriteString(printedChain, in.name+"\x00")
				ph := sha256.Sum256([]byte(printed))
				printedChain.Write(ph[:])
				if printed == "" {
					continue
				}
				if prog, err := minic.ParseProgram(printed); err != nil {
					t.Errorf("%s: printed program does not reparse: %v", in.name, err)
				} else if minic.PrintProgram(prog) != printed {
					t.Errorf("%s: printed program does not reprint to itself", in.name)
				}
			}
			if got := hex.EncodeToString(chain.Sum(nil)); got != want[g] {
				t.Errorf("%d %s inputs hash to %s, pinned %s", len(inputs[g]), g, got, want[g])
			}
			if got := hex.EncodeToString(printedChain.Sum(nil)); got != wantPrinted[g] {
				t.Errorf("%d %s inputs print to %s, pinned %s", len(inputs[g]), g, got, wantPrinted[g])
			}
		})
	}
}

// Adversarial sources for the frontend: n sequential ifs, n locals,
// and one n-term subtraction chain. Each stresses a stage that used
// to be quadratic in the size of one function.
func manyIfs(n int) string {
	var sb strings.Builder
	sb.WriteString("int main(void) {\n  int x = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  if (x < %d) x = x + 1;\n", i)
	}
	sb.WriteString("  return x;\n}\n")
	return sb.String()
}

func manyLocals(n int) string {
	var sb strings.Builder
	sb.WriteString("int main(void) {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  int v%d = %d;\n", i, i)
	}
	sb.WriteString("  return v0;\n}\n")
	return sb.String()
}

func subChain(n int) string {
	return "int main(void) {\n  int x = 1;\n  return x" + strings.Repeat("-x", n-1) + ";\n}\n"
}

// BenchmarkCompile times the hardened frontend (parse, lower, mem2reg)
// per input; the subtraction chain also runs Analyze, where splitting
// it used to be quadratic in the block's length.
func BenchmarkCompile(b *testing.B) {
	var progs []frontendInput
	for _, p := range append(corpus.Spec(), corpus.TestSuite(100)...) {
		progs = append(progs, frontendInput{p.Name, p.Source})
	}
	cases := []struct {
		name    string
		inputs  []frontendInput
		analyze bool
	}{
		{"corpus", progs, false},
		{"synth-2000", []frontendInput{{"synth", synth.Module(2000, 1)}}, false},
		{"ifs-20k", []frontendInput{{"ifs", manyIfs(20000)}}, false},
		{"locals-20k", []frontendInput{{"locals", manyLocals(20000)}}, false},
		{"subchain-20k", []frontendInput{{"chain", subChain(20000)}}, true},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, in := range c.inputs {
					p := New(Config{})
					m, err := p.Compile(in.name, in.src)
					if err != nil {
						b.Fatal(err)
					}
					if c.analyze {
						if _, err := p.Analyze(m); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
