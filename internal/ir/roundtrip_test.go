package ir_test

import (
	"testing"

	"repro/internal/csmith"
	"repro/internal/essa"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/ssa"
)

// TestPrintParseRoundTripGenerated property-checks the textual format
// over realistic modules: for random programs, compiled and
// transformed to e-SSA (so sigmas, copies and phis all appear), the
// printer and parser must be exact inverses, and the reparsed module
// must still verify — including the SSA dominance property.
func TestPrintParseRoundTripGenerated(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		src := csmith.Generate(csmith.Config{
			Seed: 500 + seed, MaxPtrDepth: 2 + int(seed)%4, Stmts: 25,
		})
		m, err := minic.Compile("gen", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		essa.TransformModule(m, nil)

		text1 := m.String()
		m2, err := ir.Parse(text1)
		if err != nil {
			t.Fatalf("seed %d: reparse failed: %v", seed, err)
		}
		text2 := m2.String()
		if text1 != text2 {
			t.Fatalf("seed %d: round trip unstable", seed)
		}
		for _, f := range m2.Funcs {
			if err := ssa.VerifySSA(f); err != nil {
				t.Fatalf("seed %d: reparsed @%s breaks SSA: %v", seed, f.FName, err)
			}
		}
	}
}

// TestParsePreservesAnalysisInputs: the annotations the analyses
// depend on (sigma cmp/side/arm, copy sub-user, phi incoming blocks)
// must survive the round trip node for node.
func TestParsePreservesAnalysisInputs(t *testing.T) {
	src := csmith.Generate(csmith.Config{Seed: 77, MaxPtrDepth: 3, Stmts: 30})
	m, err := minic.Compile("gen", src)
	if err != nil {
		t.Fatal(err)
	}
	essa.TransformModule(m, nil)
	m2, err := ir.Parse(m.String())
	if err != nil {
		t.Fatal(err)
	}
	count := func(mod *ir.Module) (sigmas, copies, subusers, phis int) {
		for _, f := range mod.Funcs {
			f.Instrs(func(in *ir.Instr) bool {
				switch in.Op {
				case ir.OpSigma:
					sigmas++
					if in.Cmp() == nil {
						t.Errorf("sigma %s lost its cmp", in.Ref())
					}
				case ir.OpCopy:
					copies++
					if in.SubUser() != nil {
						subusers++
					}
				case ir.OpPhi:
					phis++
					if len(in.Args) != len(in.PhiBlocks()) {
						t.Errorf("phi %s arg/block mismatch", in.Ref())
					}
				}
				return true
			})
		}
		return
	}
	s1, c1, u1, p1 := count(m)
	s2, c2, u2, p2 := count(m2)
	if s1 != s2 || c1 != c2 || u1 != u2 || p1 != p2 {
		t.Errorf("instruction counts changed: sigmas %d/%d copies %d/%d subusers %d/%d phis %d/%d",
			s1, s2, c1, c2, u1, u2, p1, p2)
	}
	if s1 == 0 {
		t.Log("note: no sigmas in this seed; round trip still verified")
	}
}

// TestRoundTripCsmithCorpus sweeps a larger generated corpus, both
// raw (straight out of the frontend) and after the full e-SSA
// transform, asserting Parse∘Print is the identity on the printed
// form for every module.
func TestRoundTripCsmithCorpus(t *testing.T) {
	check := func(seed int64, label string, m *ir.Module) {
		t.Helper()
		text1 := m.String()
		m2, err := ir.Parse(text1)
		if err != nil {
			t.Fatalf("seed %d (%s): reparse failed: %v", seed, label, err)
		}
		if text2 := m2.String(); text1 != text2 {
			t.Fatalf("seed %d (%s): round trip unstable", seed, label)
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		src := csmith.Generate(csmith.Config{
			Seed: 9000 + seed, MaxPtrDepth: 2 + int(seed)%5, Stmts: 20 + int(seed)%30,
		})
		m, err := minic.Compile("gen", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check(seed, "raw", m)
		essa.TransformModule(m, nil)
		check(seed, "essa", m)
	}
}

// TestRoundTripModuleNames pins the string-literal escaping fixed in
// the lexer: module names containing quotes, backslashes and other
// escape-worthy characters must survive Print → Parse → Print. Before
// the fix the lexer scanned to the first '"' with no escape handling,
// so the printer's %q output was mangled on the way back in.
func TestRoundTripModuleNames(t *testing.T) {
	names := []string{
		"plain",
		"with space",
		`quo"te`,
		`back\slash`,
		`both\"mixed`,
		"tab\tand\nnewline",
		`trailing\`,
		"",
	}
	for _, name := range names {
		m, err := minic.Compile(name, "int main() { return 0; }")
		if err != nil {
			t.Fatal(err)
		}
		text1 := m.String()
		m2, err := ir.Parse(text1)
		if err != nil {
			t.Fatalf("name %q: reparse failed: %v", name, err)
		}
		if m2.Name != name {
			t.Fatalf("name %q came back as %q", name, m2.Name)
		}
		if text2 := m2.String(); text1 != text2 {
			t.Fatalf("name %q: round trip unstable:\n%s\nvs\n%s", name, text1, text2)
		}
	}
}

// TestParseRejectsBadStringLiteral: a malformed literal is a parse
// error, not a silently truncated name.
func TestParseRejectsBadStringLiteral(t *testing.T) {
	if _, err := ir.Parse("module \"unterminated\n"); err == nil {
		t.Fatal("unterminated module name literal parsed without error")
	}
}
