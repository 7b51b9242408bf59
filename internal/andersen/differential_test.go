package andersen

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/alias"
	"repro/internal/corpus"
	"repro/internal/csmith"
	"repro/internal/ir"
	"repro/internal/minic"
)

// ptsSignature renders v's points-to answer in a canonical form
// comparable across solvers (object identity by allocation-site ref,
// order-independent).
func ptsSignature(a *Analysis, v ir.Value) string {
	sites, unknown := a.PointsTo(v)
	refs := make([]string, 0, len(sites)+1)
	for _, s := range sites {
		refs = append(refs, s.Ref())
	}
	sort.Strings(refs)
	if unknown {
		refs = append(refs, "<unknown>")
	}
	return fmt.Sprint(refs)
}

// TestSparseMatchesReference: the sparse delta-propagation solver and
// the map-based reference solver must compute identical points-to sets
// and identical alias verdicts on every pointer value of every
// program. This is the differential oracle behind the solver rework:
// any divergence is a bug in the optimized path.
func TestSparseMatchesReference(t *testing.T) {
	var progs []string
	for _, p := range corpus.Spec() {
		progs = append(progs, p.Source)
	}
	n := int64(40)
	if testing.Short() {
		n = 8
	}
	for seed := int64(0); seed < n; seed++ {
		progs = append(progs, csmith.Generate(csmith.Config{
			Seed: 7000 + seed, MaxPtrDepth: 3, Stmts: 40,
		}))
	}
	for pi, src := range progs {
		m := minic.MustCompile("t", src)
		fast := Analyze(m)
		ref := AnalyzeReference(m)
		if (fast.Degraded() == nil) != (ref.Degraded() == nil) {
			t.Fatalf("program %d: degraded mismatch: fast=%v ref=%v",
				pi, fast.Degraded(), ref.Degraded())
		}
		for _, f := range m.Funcs {
			ptrs := alias.PointerValues(f)
			for _, v := range ptrs {
				fs, rs := ptsSignature(fast, v), ptsSignature(ref, v)
				if fs != rs {
					t.Fatalf("program %d @%s: PointsTo(%s) diverges:\n sparse: %s\n    ref: %s",
						pi, f.FName, v.Ref(), fs, rs)
				}
			}
			if len(ptrs) > 30 {
				ptrs = ptrs[:30] // bound the quadratic sweep
			}
			for i := 0; i < len(ptrs); i++ {
				for j := i; j < len(ptrs); j++ {
					la, lb := alias.Loc(ptrs[i]), alias.Loc(ptrs[j])
					if fv, rv := fast.Alias(la, lb), ref.Alias(la, lb); fv != rv {
						t.Fatalf("program %d @%s: Alias(%s, %s): sparse=%s ref=%s",
							pi, f.FName, ptrs[i].Ref(), ptrs[j].Ref(), fv, rv)
					}
				}
			}
		}
	}
}

// TestSparseMatchesReferenceDeepPointers stresses the store/load rules
// with deeper indirection, where cycle collapsing and delta
// propagation actually fire.
func TestSparseMatchesReferenceDeepPointers(t *testing.T) {
	n := int64(20)
	if testing.Short() {
		n = 4
	}
	for seed := int64(0); seed < n; seed++ {
		src := csmith.Generate(csmith.Config{
			Seed: 9100 + seed, MaxPtrDepth: 5, Stmts: 80,
		})
		m := minic.MustCompile("t", src)
		fast := Analyze(m)
		ref := AnalyzeReference(m)
		for _, f := range m.Funcs {
			for _, v := range alias.PointerValues(f) {
				fs, rs := ptsSignature(fast, v), ptsSignature(ref, v)
				if fs != rs {
					t.Fatalf("seed %d @%s: PointsTo(%s) diverges:\n sparse: %s\n    ref: %s",
						seed, f.FName, v.Ref(), fs, rs)
				}
			}
		}
	}
}

// BenchmarkSolvers compares the sparse solver against the reference on
// a csmith-generated module (go test -bench Solvers ./internal/andersen/).
// The sparse solver's cost inside the whole stack is cmd/sraaperf's
// andersen.solve layer.
func BenchmarkSolvers(b *testing.B) {
	src := csmith.Generate(csmith.Config{Seed: 42, MaxPtrDepth: 4, Stmts: 200})
	m := minic.MustCompile("bench", src)
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Analyze(m)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AnalyzeReference(m)
		}
	})
}
