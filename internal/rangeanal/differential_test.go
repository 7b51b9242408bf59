package rangeanal

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/budget"
	"repro/internal/corpus"
	"repro/internal/csmith"
	"repro/internal/essa"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/synth"
)

// TestDifferentialRanges: the dense solver gives every value exactly
// the reference solver's interval, in both pipeline passes (before
// and after subtraction splitting), with and without a skip set, and
// under step budgets that abort the ascent, abort the narrowing, or
// leave headroom. Both sides must agree on the budget error.
func TestDifferentialRanges(t *testing.T) {
	progs := append(corpus.Spec(), corpus.TestSuite(100)...)
	seeds, funcs := int64(50), 2000
	if testing.Short() || raceEnabled {
		progs = append(corpus.Spec()[:8], corpus.TestSuite(8)...)
		seeds, funcs = 8, 300
	}
	// Two interleaved corpus shards keep two cores busy.
	for shard := 0; shard < 2; shard++ {
		shard := shard
		t.Run(fmt.Sprintf("corpus-%d", shard), func(t *testing.T) {
			t.Parallel()
			for i := shard; i < len(progs); i += 2 {
				checkPasses(t, progs[i].Name, progs[i].Source)
			}
		})
	}
	t.Run("csmith", func(t *testing.T) {
		t.Parallel()
		for seed := int64(1); seed <= seeds; seed++ {
			src := csmith.Generate(csmith.Config{Seed: seed, MaxPtrDepth: 2 + int(seed%4), Stmts: 60})
			checkPasses(t, fmt.Sprintf("csmith-%d", seed), src)
		}
	})
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("synth-%d", seed), func(t *testing.T) {
			t.Parallel()
			checkPasses(t, fmt.Sprintf("synth-%d-%d", funcs, seed), synth.Module(funcs, seed))
		})
	}
}

// checkPasses compiles src and differentially checks the pre-split
// pass, then splits subtractions with its result as the harness does
// and checks the final pass.
func checkPasses(t *testing.T, name, src string) {
	t.Helper()
	m := minic.MustCompile(name, src)
	for _, f := range m.Funcs {
		essa.InsertSigmas(f)
	}
	pre := checkPass(t, name+" pre", m)
	for _, f := range m.Funcs {
		essa.SplitSubtractions(f, pre)
	}
	checkPass(t, name+" final", m)
}

// checkPass compares both solvers on m under every budget, with no
// skip set and with every third function skipped, and returns the
// unbudgeted dense result. The schedule must match as well: the same
// node order, the same dependents of each node in the same order, and
// as many budget ticks (worklist pops plus narrowing evaluations), so
// a change of FIFO order shows even where it leaves the intervals
// alone.
func checkPass(t *testing.T, label string, m *ir.Module) *Result {
	t.Helper()
	ctx := context.Background()
	skip := map[*ir.Func]bool{}
	for i, f := range m.Funcs {
		if i%3 == 1 {
			skip[f] = true
		}
	}
	var full *Result
	for _, sk := range []map[*ir.Func]bool{nil, skip} {
		counted := budget.Spec{MaxSteps: math.MaxInt}
		ref := referenceAnalyzeCtx(ctx, m, Opts{Budget: counted, Skip: sk})
		s, nodes := build(m, sk)
		checkSchedule(t, fmt.Sprintf("%s skip=%d", label, len(sk)), ref.sys, s, nodes)
		bgt := counted.Start(ctx)
		s.solve(bgt)
		if bgt.Steps() != ref.steps {
			t.Fatalf("%s skip=%d: %d budget ticks, reference %d", label, len(sk), bgt.Steps(), ref.steps)
		}
		n := len(ref.ranges)
		for _, steps := range []int{0, 1, 7, 100, 1000, n, 2 * n, 10 * n} {
			opt := Opts{Budget: budget.Spec{MaxSteps: steps}, Skip: sk}
			at := fmt.Sprintf("%s skip=%d steps=%d", label, len(sk), steps)
			want := referenceAnalyzeCtx(ctx, m, opt)
			got := AnalyzeCtx(ctx, m, opt)
			compareResults(t, at, m, want, got)
			if steps > 0 && steps < n && !want.aborted {
				t.Fatalf("%s: %d steps for %d nodes did not abort the ascent", at, steps, n)
			}
			if sk == nil && steps == 0 {
				full = got
			}
		}
	}
	return full
}

// checkSchedule fails unless the dense solver numbers the reference's
// nodes in the reference's order and gives every node the reference's
// dependents in the reference's order.
func checkSchedule(t *testing.T, at string, ref *refAnalysis, s *solver, nodes nodeIndex) {
	t.Helper()
	if len(s.nodes) != len(ref.nodes) {
		t.Fatalf("%s: %d nodes, reference %d", at, len(s.nodes), len(ref.nodes))
	}
	for i, v := range ref.nodes {
		if id, ok := nodes.of(v); !ok || id != int32(i) {
			t.Fatalf("%s: %s is node %d (tracked %v), reference %d", at, v.Ref(), id, ok, i)
		}
		got := s.deps[s.depOff[i]:s.depOff[i+1]]
		want := ref.deps[v]
		if len(got) != len(want) {
			t.Fatalf("%s: %s has %d dependents, reference %d", at, v.Ref(), len(got), len(want))
		}
		for k, d := range want {
			if id, _ := nodes.of(d); id != got[k] {
				t.Fatalf("%s: dependent %d of %s is node %d, reference %s", at, k, v.Ref(), got[k], d.Ref())
			}
		}
	}
}

// compareResults fails unless got tracks exactly the values want
// does, with identical intervals (not merely equal sets: even the
// encoding of an empty interval must match), every value of m reports
// the same Range, and the budget outcome agrees.
func compareResults(t *testing.T, at string, m *ir.Module, want *refResult, got *Result) {
	t.Helper()
	if fmt.Sprint(want.err) != fmt.Sprint(got.Err()) {
		t.Fatalf("%s: err = %v, reference %v", at, got.Err(), want.err)
	}
	dense := rangesOf(m, got)
	if want.aborted && len(dense) != 0 {
		t.Fatalf("%s: ascent aborted but %d values keep an interval", at, len(dense))
	}
	if len(dense) != len(want.ranges) {
		t.Fatalf("%s: %d tracked values, reference %d", at, len(dense), len(want.ranges))
	}
	for _, f := range m.Funcs {
		for _, v := range f.Values() {
			w, g := want.Range(v), got.Range(v)
			if w != g {
				t.Fatalf("%s: @%s %s = %v (%d, %d), reference %v (%d, %d)",
					at, f.FName, v.Ref(), g, g.Lo, g.Hi, w, w.Lo, w.Hi)
			}
			if want.aborted && !g.IsTop() {
				t.Fatalf("%s: ascent aborted but @%s %s = %v", at, f.FName, v.Ref(), g)
			}
			if _, ok := want.ranges[v]; ok {
				if _, ok := dense[v]; !ok {
					t.Fatalf("%s: @%s %s is not tracked", at, f.FName, v.Ref())
				}
			}
		}
	}
}

// BenchmarkAnalyze times one whole-module solve of the reference and
// the dense solver on a 2000-function synthetic module in e-SSA form.
func BenchmarkAnalyze(b *testing.B) {
	m := minic.MustCompile("synth", synth.Module(2000, 1))
	for _, f := range m.Funcs {
		essa.InsertSigmas(f)
	}
	ctx := context.Background()
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceAnalyzeCtx(ctx, m, Opts{})
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AnalyzeCtx(ctx, m, Opts{})
		}
	})
}
