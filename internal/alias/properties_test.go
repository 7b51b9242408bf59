package alias_test

import (
	"fmt"
	"testing"

	"repro/internal/alias"
	"repro/internal/andersen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/csmith"
	"repro/internal/minic"
	"repro/internal/steens"
)

// TestAliasSymmetry: Alias(a, b) must equal Alias(b, a) for every
// analysis, across realistic programs. Asymmetry would make aa-eval
// order-dependent and chains unstable.
func TestAliasSymmetry(t *testing.T) {
	var progs []string
	for _, p := range corpus.Spec()[:4] {
		progs = append(progs, p.Source)
	}
	for seed := int64(0); seed < 5; seed++ {
		progs = append(progs, csmith.Generate(csmith.Config{
			Seed: 600 + seed, MaxPtrDepth: 3, Stmts: 30,
		}))
	}
	for pi, src := range progs {
		m := minic.MustCompile("t", src)
		prep := core.Prepare(m, core.PipelineOptions{})
		analyses := []alias.Analysis{
			alias.NewBasic(m),
			alias.NewSRAA(prep.LT),
			alias.NewSRAAWithRanges(prep.LT, prep.Ranges),
			andersen.Analyze(m),
		}
		for _, f := range m.Funcs {
			ptrs := alias.PointerValues(f)
			if len(ptrs) > 40 {
				ptrs = ptrs[:40] // bound the quadratic sweep
			}
			for i := 0; i < len(ptrs); i++ {
				for j := i + 1; j < len(ptrs); j++ {
					la, lb := alias.Loc(ptrs[i]), alias.Loc(ptrs[j])
					for _, an := range analyses {
						ab := an.Alias(la, lb)
						ba := an.Alias(lb, la)
						if ab != ba {
							t.Fatalf("program %d @%s: %s asymmetric on (%s, %s): %s vs %s",
								pi, f.FName, an.Name(),
								ptrs[i].Ref(), ptrs[j].Ref(), ab, ba)
						}
					}
				}
			}
		}
	}
}

// TestSelfQueryIsNotNoAlias: a location never no-aliases itself.
func TestSelfQueryIsNotNoAlias(t *testing.T) {
	m := minic.MustCompile("t", `
int f(int *v, int i) {
  int a[4];
  int *p = v + i;
  a[0] = *p;
  return a[0];
}
`)
	prep := core.Prepare(m, core.PipelineOptions{})
	analyses := []alias.Analysis{
		alias.NewBasic(m),
		alias.NewSRAA(prep.LT),
		alias.NewSRAAWithRanges(prep.LT, prep.Ranges),
		andersen.Analyze(m),
	}
	for _, f := range m.Funcs {
		for _, p := range alias.PointerValues(f) {
			for _, an := range analyses {
				if got := an.Alias(alias.Loc(p), alias.Loc(p)); got == alias.NoAlias {
					t.Errorf("%s: alias.NoAlias(%s, %s)", an.Name(), p.Ref(), p.Ref())
				}
			}
		}
	}
}

// storeKernel stores a pointer through a pointer and loads it back,
// so o reaches z only through memory: ST must not answer NoAlias for
// o against z, which Andersen answers MayAlias.
const storeKernel = `
int main(int c) {
  int *o = malloc(8);
  int **p = malloc(8);
  *p = o;
  int *x = *p;
  int *y = malloc(8);
  int *z = y;
  if (c) z = x;
  *z = 1;
  *o = 2;
  return *z;
}
`

// TestSteensgaardOverApproximatesAndersen: unification is a coarsening
// of inclusion — for every pair where Andersen answers MayAlias,
// Steensgaard must too (equivalently: Steensgaard may answer NoAlias
// only where Andersen does). The sweep covers the corpus plus ≥200
// csmith programs, sharded across parallel subtests so the race
// detector exercises the analyses' concurrent use.
func TestSteensgaardOverApproximatesAndersen(t *testing.T) {
	const shards = 8
	perShard := int64(25) // 8 × 25 = 200 generated programs
	if testing.Short() {
		perShard = 3
	}
	check := func(t *testing.T, tag string, src string) {
		t.Helper()
		m := minic.MustCompile("t", src)
		cf := andersen.Analyze(m)
		st := steens.Analyze(m)
		for _, f := range m.Funcs {
			ptrs := alias.PointerValues(f)
			if len(ptrs) > 40 {
				ptrs = ptrs[:40] // bound the quadratic sweep
			}
			for i := 0; i < len(ptrs); i++ {
				for j := i; j < len(ptrs); j++ {
					la, lb := alias.Loc(ptrs[i]), alias.Loc(ptrs[j])
					if st.Alias(la, lb) == alias.NoAlias && cf.Alias(la, lb) == alias.MayAlias {
						t.Errorf("%s @%s: Steensgaard NoAlias but Andersen MayAlias on (%s, %s)",
							tag, f.FName, ptrs[i].Ref(), ptrs[j].Ref())
					}
				}
			}
		}
	}
	t.Run("corpus", func(t *testing.T) {
		t.Parallel()
		for _, p := range corpus.Spec() {
			check(t, p.Name, p.Source)
		}
	})
	t.Run("kernel", func(t *testing.T) {
		t.Parallel()
		check(t, "store-through-pointer", storeKernel)
	})
	for shard := int64(0); shard < shards; shard++ {
		shard := shard
		t.Run(fmt.Sprintf("csmith-%d", shard), func(t *testing.T) {
			t.Parallel()
			for i := int64(0); i < perShard; i++ {
				seed := 3000 + shard*perShard + i
				src := csmith.Generate(csmith.Config{
					Seed: seed, MaxPtrDepth: 3 + int(seed%3), Stmts: 30,
				})
				check(t, fmt.Sprintf("seed%d", seed), src)
			}
		})
	}
}

// TestChainDominance: a chain's no-alias set must be exactly the
// union of its components' (never less, and nothing a component did
// not prove).
func TestChainDominance(t *testing.T) {
	src := corpus.Spec()[0].Source
	m := minic.MustCompile("t", src)
	prep := core.Prepare(m, core.PipelineOptions{})
	ba := alias.NewBasic(m)
	lt := alias.NewSRAA(prep.LT)
	chain := alias.NewChain(ba, lt)
	for _, f := range m.Funcs {
		ptrs := alias.PointerValues(f)
		if len(ptrs) > 30 {
			ptrs = ptrs[:30]
		}
		for i := 0; i < len(ptrs); i++ {
			for j := i + 1; j < len(ptrs); j++ {
				la, lb := alias.Loc(ptrs[i]), alias.Loc(ptrs[j])
				c := chain.Alias(la, lb)
				b := ba.Alias(la, lb)
				l := lt.Alias(la, lb)
				if c == alias.MayAlias && (b != alias.MayAlias || l != alias.MayAlias) {
					t.Fatalf("chain weaker than a component on (%s, %s)",
						ptrs[i].Ref(), ptrs[j].Ref())
				}
				if c != alias.MayAlias && b == alias.MayAlias && l == alias.MayAlias {
					t.Fatalf("chain invented %s on (%s, %s)",
						c, ptrs[i].Ref(), ptrs[j].Ref())
				}
			}
		}
	}
}
