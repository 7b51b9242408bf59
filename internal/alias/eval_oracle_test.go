package alias_test

import (
	"fmt"
	"testing"

	"repro/internal/alias"
	"repro/internal/andersen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/csmith"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/steens"
	"repro/internal/synth"
)

// oracleEvaluate is the reference aa-eval loop the evaluation kernel
// replaced: every pair of every function asks every row's Alias on
// freshly built locations, chains re-asking their members.
func oracleEvaluate(m *ir.Module, analyses ...alias.Analysis) *alias.Report {
	rep := alias.NewReport(m.Name, analyses...)
	for _, f := range m.Funcs {
		ptrs := oraclePointerValues(f)
		for i := 0; i < len(ptrs); i++ {
			for j := i + 1; j < len(ptrs); j++ {
				la, lb := alias.Loc(ptrs[i]), alias.Loc(ptrs[j])
				for _, an := range analyses {
					c := rep.PerAnalysis[an.Name()]
					c.Queries++
					switch an.Alias(la, lb) {
					case alias.NoAlias:
						c.No++
					case alias.MustAlias:
						c.Must++
					default:
						c.May++
					}
				}
			}
		}
	}
	return rep
}

// oraclePointerValues is the reference enumeration order, deduplicating
// every value through one map.
func oraclePointerValues(f *ir.Func) []ir.Value {
	var out []ir.Value
	seen := map[ir.Value]bool{}
	add := func(v ir.Value) {
		if !seen[v] && ir.IsPtr(v.Type()) {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, p := range f.Params {
		add(p)
	}
	f.Instrs(func(in *ir.Instr) bool {
		for _, a := range in.Args {
			if g, ok := a.(*ir.Global); ok {
				add(g)
			}
		}
		if in.HasResult() {
			add(in)
		}
		return true
	})
	return out
}

// viaAlias hides its analysis's FuncPreparer, so the kernel must ask
// it through Alias; calls counts those queries.
type viaAlias struct {
	an    alias.Analysis
	calls int
}

func (v *viaAlias) Name() string { return "via-" + v.an.Name() }

func (v *viaAlias) Alias(a, b alias.Location) alias.Result {
	v.calls++
	return v.an.Alias(a, b)
}

// gepSplit is a test-only prepared leaf whose key splits base groups:
// a GEP and its base pointer get different keys. It answers NoAlias
// exactly when one of the two pointers is a GEP result and the other
// is not, which is unsound but consistent between Alias, Pair and
// Cross. No analysis of the corpus keys two pointers of one base
// apart, so only this leaf catches a kernel that takes a class for a
// property of the base.
type gepSplit struct{}

func (gepSplit) Name() string { return "GEP-split" }

func (gepSplit) Alias(a, b alias.Location) alias.Result { return splitRule(isGEP(a.Ptr), isGEP(b.Ptr)) }

func (gepSplit) NewPrepared() alias.Prepared { return &gepSplitPrepared{} }

func isGEP(v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	return ok && in.Op == ir.OpGEP
}

func splitRule(a, b bool) alias.Result {
	if a != b {
		return alias.NoAlias
	}
	return alias.MayAlias
}

type gepSplitPrepared struct{ gep []bool }

func (p *gepSplitPrepared) Prepare(_ *ir.Func, ptrs []alias.Pointer) {
	p.gep = p.gep[:0]
	for _, ptr := range ptrs {
		p.gep = append(p.gep, isGEP(ptr.Loc.Ptr))
	}
}

func (p *gepSplitPrepared) Pair(i, j int) alias.Result { return splitRule(p.gep[i], p.gep[j]) }

func (p *gepSplitPrepared) Key(i int) int {
	if p.gep[i] {
		return 1
	}
	return 0
}

func (p *gepSplitPrepared) Cross(i, j int) alias.Result { return p.Pair(i, j) }

func (p *gepSplitPrepared) Exceptions(func(i, j int)) {}

// analyzed is one compiled program with every analysis the row sets
// draw on.
type analyzed struct {
	name string
	m    *ir.Module
	prep *core.Prepared
	st   *steens.Analysis
	cf   *andersen.Analysis
}

func analyze(name, src string) analyzed {
	m := minic.MustCompile(name, src)
	prep := core.Prepare(m, core.PipelineOptions{})
	return analyzed{name: name, m: m, prep: prep, st: steens.Analyze(m), cf: andersen.Analyze(m)}
}

// rowSets are the analysis lists the kernel must evaluate exactly as
// the oracle does.
func rowSets(a analyzed) map[string][]alias.Analysis {
	ba := alias.NewBasic(a.m)
	lt := alias.NewSRAA(a.prep.LT)
	pdgBA := alias.NewBasic(a.m)
	pdgBA.UnknownSizes, pdgBA.Intraprocedural = true, true
	ranged := alias.NewSRAAWithRanges(a.prep.LT, a.prep.Ranges)
	return map[string][]alias.Analysis{
		"paper":  {ba, lt, alias.NewChain(ba, lt), a.st, alias.NewChain(ba, a.cf)},
		"ranged": {pdgBA, ranged, alias.NewChain(pdgBA, ranged)},
		"nested": {
			alias.NewChain(alias.NewChain(ba, lt), alias.NewChain(a.st, a.cf)),
			alias.NewChain(lt, alias.NewChain(ba, alias.NewChain(a.cf))),
			alias.NewChain(),
		},
		"twice": {ba, lt, ba},
		// ST and CF lead their chains, so their Cross answers decide
		// class pairs before BA's or LT's are asked.
		"leaders": {
			alias.NewChain(a.st, ba), alias.NewChain(a.cf, lt),
			alias.NewChain(a.st, a.cf, ranged), a.cf,
		},
		// Leaves asked through Alias, one class per pointer, beside
		// prepared ones.
		"via": {
			&viaAlias{an: ba}, alias.NewChain(lt, &viaAlias{an: a.st}),
			alias.NewChain(&viaAlias{an: a.cf}, ba), ba,
		},
		// A key that splits base groups, alone and behind BA and LT.
		"split": {
			gepSplit{}, alias.NewChain(ba, gepSplit{}),
			alias.NewChain(lt, gepSplit{}, a.cf), ba,
		},
	}
}

var rowSetOrder = []string{"paper", "ranged", "nested", "twice", "leaders", "via", "split"}

func checkKernel(t *testing.T, a analyzed) {
	t.Helper()
	sets := rowSets(a)
	for _, name := range rowSetOrder {
		want := oracleEvaluate(a.m, sets[name]...).String()
		if got := alias.Evaluate(a.m, sets[name]...).String(); got != want {
			t.Fatalf("%s, rows %s: kernel report differs from the oracle:\n--- oracle ---\n%s--- kernel ---\n%s",
				a.name, name, want, got)
		}
	}
}

// TestDifferentialKernel: the evaluation kernel reproduces the oracle's
// report byte for byte on every row set, over the corpus, generated
// programs and a synthetic module.
func TestDifferentialKernel(t *testing.T) {
	progs := append(corpus.Spec(), corpus.TestSuite(100)...)
	if testing.Short() || raceEnabled {
		progs = append(corpus.Spec()[:8], corpus.TestSuite(8)...)
	}
	// Two interleaved shards keep two cores busy on the quadratic loops.
	for shard := 0; shard < 2; shard++ {
		shard := shard
		t.Run(fmt.Sprintf("corpus-%d", shard), func(t *testing.T) {
			t.Parallel()
			for i := shard; i < len(progs); i += 2 {
				checkKernel(t, analyze(progs[i].Name, progs[i].Source))
			}
		})
	}
	t.Run("csmith", func(t *testing.T) {
		t.Parallel()
		seeds := int64(50)
		if testing.Short() || raceEnabled {
			seeds = 8
		}
		for seed := int64(0); seed < seeds; seed++ {
			src := csmith.Generate(csmith.Config{Seed: 7000 + seed, MaxPtrDepth: 2 + int(seed%4), Stmts: 40})
			checkKernel(t, analyze(fmt.Sprintf("csmith-%d", 7000+seed), src))
		}
	})
	t.Run("synth", func(t *testing.T) {
		t.Parallel()
		checkKernel(t, analyze("synth-300", synth.Module(300, 1)))
	})
}

// TestEvaluateWithoutPreparer: an analysis that does not implement
// FuncPreparer is still asked, through Alias, and counts like the
// oracle.
func TestEvaluateWithoutPreparer(t *testing.T) {
	a := analyze(corpus.Spec()[0].Name, corpus.Spec()[0].Source)
	lt := alias.NewSRAA(a.prep.LT)
	plain := &viaAlias{an: alias.NewBasic(a.m)}
	rows := []alias.Analysis{plain, alias.NewChain(plain, lt), lt}
	want := oracleEvaluate(a.m, rows...).String()
	plain.calls = 0
	rep := alias.Evaluate(a.m, rows...)
	if got := rep.String(); got != want {
		t.Fatalf("report differs from the oracle:\n--- oracle ---\n%s--- kernel ---\n%s", want, got)
	}
	// The leaf is shared by both rows: asked once per pair.
	if q := rep.PerAnalysis[plain.Name()].Queries; q == 0 || plain.calls != q {
		t.Fatalf("Alias calls = %d, want one per pair (%d)", plain.calls, q)
	}
}

// TestEvaluateMatchesAliasPerPair: each analysis's prepared pair rule
// answers every pair exactly as its Alias does, so the kernel and
// direct clients (PDG, optimizations) see one rule. Its split rule
// holds too: across bases Cross answers every pair Exceptions does not
// list as Alias does, it depends on the keys alone, and every listed
// exception is a pair of pointers with different bases.
func TestEvaluateMatchesAliasPerPair(t *testing.T) {
	for _, p := range corpus.Spec()[:6] {
		a := analyze(p.Name, p.Source)
		pdgBA := alias.NewBasic(a.m)
		pdgBA.UnknownSizes, pdgBA.Intraprocedural = true, true
		ranged := alias.NewSRAAWithRanges(a.prep.LT, a.prep.Ranges)
		analyses := []alias.FuncPreparer{alias.NewBasic(a.m), pdgBA, alias.NewSRAA(a.prep.LT), ranged, a.st, a.cf}
		for _, f := range a.m.Funcs {
			vals := alias.PointerValues(f)
			ptrs := alias.PreparePointers(vals)
			for _, an := range analyses {
				pr := an.NewPrepared()
				pr.Prepare(f, ptrs)
				where := func(i, j int) string {
					return fmt.Sprintf("%s @%s %s(%s, %s)", p.Name, f.FName, an.Name(), vals[i].Ref(), vals[j].Ref())
				}
				listed := map[[2]int]bool{}
				pr.Exceptions(func(i, j int) {
					if i < 0 || j < 0 || i >= len(ptrs) || j >= len(ptrs) {
						t.Fatalf("%s @%s %s: exception (%d, %d) out of range", p.Name, f.FName, an.Name(), i, j)
					}
					if alias.BaseOf(&ptrs[i]) == alias.BaseOf(&ptrs[j]) {
						t.Fatalf("%s: listed as an exception, but the pointers share a base", where(i, j))
					}
					listed[[2]int{i, j}], listed[[2]int{j, i}] = true, true
				})
				// rep[k] is the first pointer with key k.
				rep := map[int]int{}
				for i := range vals {
					if _, ok := rep[pr.Key(i)]; !ok {
						rep[pr.Key(i)] = i
					}
				}
				for i := range vals {
					r := rep[pr.Key(i)]
					for j := range vals {
						want := an.Alias(alias.Loc(vals[i]), alias.Loc(vals[j]))
						if got := pr.Pair(i, j); got != want {
							t.Fatalf("%s: Pair = %s, Alias = %s", where(i, j), got, want)
						}
						cross := pr.Cross(i, j)
						if alias.BaseOf(&ptrs[i]) != alias.BaseOf(&ptrs[j]) && !listed[[2]int{i, j}] && cross != want {
							t.Fatalf("%s: Cross = %s, Alias = %s, not listed as an exception", where(i, j), cross, want)
						}
						if other := pr.Cross(r, j); other != cross {
							t.Fatalf("%s: Cross = %s, but %s with the same key %d gets %s",
								where(i, j), cross, vals[r].Ref(), pr.Key(i), other)
						}
					}
				}
			}
		}
	}
}

// TestPointerValuesDeterministic: the enumeration is stable from call
// to call and, deduplicating only globals, yields exactly the oracle's
// values in the oracle's order.
func TestPointerValuesDeterministic(t *testing.T) {
	srcs := []string{`
int g[4];
int f(int *p) {
  int a[2];
  a[0] = g[0] + *p;
  return a[0] + g[1];
}
`, synth.Module(50, 3)}
	for _, p := range corpus.Spec()[:10] {
		srcs = append(srcs, p.Source)
	}
	for i, src := range srcs {
		m := minic.MustCompile("t", src)
		core.Prepare(m, core.PipelineOptions{})
		for _, f := range m.Funcs {
			got, again, want := alias.PointerValues(f), alias.PointerValues(f), oraclePointerValues(f)
			if len(got) != len(want) || len(again) != len(want) {
				t.Fatalf("program %d @%s: %d then %d values, oracle %d", i, f.FName, len(got), len(again), len(want))
			}
			for k := range got {
				if got[k] != want[k] || again[k] != want[k] {
					t.Fatalf("program %d @%s: value %d is %s then %s, oracle %s",
						i, f.FName, k, got[k].Ref(), again[k].Ref(), want[k].Ref())
				}
			}
		}
		if i == 0 {
			if n := len(alias.PointerValues(m.FuncByName("f"))); n < 4 {
				t.Errorf("expected param, global, allocas, geps: got %d values", n)
			}
		}
	}
}

// BenchmarkEvaluate times the oracle loop against the kernel on the
// paper's row set over the first corpus programs, then the kernel
// alone on two real loads: the batch-corpus programs with the five
// rows of a batch pass, and a serve-sized one, sixteen TestSuite
// programs with the BA, LT and BA+LT rows of one sraad request. The
// last two report the allocation a harness Evaluate call pays.
func BenchmarkEvaluate(b *testing.B) {
	var progs []analyzed
	var rows [][]alias.Analysis
	for _, p := range corpus.Spec()[:12] {
		a := analyze(p.Name, p.Source)
		progs = append(progs, a)
		rows = append(rows, rowSets(a)["paper"])
	}
	for _, impl := range []struct {
		name string
		eval func(*ir.Module, ...alias.Analysis) *alias.Report
	}{{"oracle", oracleEvaluate}, {"kernel", alias.Evaluate}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k, a := range progs {
					impl.eval(a.m, rows[k]...)
				}
			}
		})
	}
	load := func(b *testing.B, progs []corpus.Program, rowsOf func(analyzed) []alias.Analysis) {
		var ms []*ir.Module
		var rows [][]alias.Analysis
		for _, p := range progs {
			a := analyze(p.Name, p.Source)
			ms, rows = append(ms, a.m), append(rows, rowsOf(a))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, m := range ms {
				alias.Evaluate(m, rows[k]...)
			}
		}
	}
	b.Run("batch-corpus", func(b *testing.B) {
		load(b, append(corpus.Spec(), corpus.TestSuite(100)...), func(a analyzed) []alias.Analysis {
			return rowSets(a)["paper"]
		})
	})
	b.Run("serve", func(b *testing.B) {
		load(b, corpus.TestSuite(16), func(a analyzed) []alias.Analysis {
			ba, lt := alias.NewBasic(a.m), alias.NewSRAA(a.prep.LT)
			return []alias.Analysis{ba, lt, alias.NewChain(ba, lt)}
		})
	})
}
