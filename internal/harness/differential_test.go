package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/corpus"
)

// The differential suite is the proof obligation of the parallel
// driver: for every supported configuration, the sharded pipeline
// must produce byte-identical observable output to the serial one —
// same module text, same intervals, same LT sets, same solver
// statistics, same alias verdicts, same failure report. canonical
// renders all of that into one string so "equivalent" degenerates to
// string equality, with stage timings (the only legitimately
// nondeterministic output) excluded via Report.Summary.

// canonical renders every deterministic observable of one pipeline
// run. It runs Evaluate, so evaluation-stage failures land in the
// report before the summary is taken.
func canonical(pipe *Pipeline, res *Result) string {
	var sb strings.Builder
	m := res.Module
	sb.WriteString(m.String())
	sb.WriteString("== ranges/lt ==\n")
	for _, f := range m.Funcs {
		fmt.Fprintf(&sb, "func @%s\n", f.FName)
		for _, v := range res.LT.VarsOf(f) {
			iv := res.Ranges.Range(v)
			fmt.Fprintf(&sb, "  %s [%d,%d] <", v.Ref(), iv.Lo, iv.Hi)
			for _, w := range res.LT.LT(v) {
				sb.WriteString(" " + w.Ref())
			}
			sb.WriteString("\n")
		}
	}
	st := res.LT.Stats
	fmt.Fprintf(&sb, "== stats ==\ninstrs=%d vars=%d constraints=%d pops=%d sizes=%v\n",
		st.Instrs, st.Vars, st.Constraints, st.Pops, res.LT.SetSizeDistribution())
	sb.WriteString("== eval ==\n")
	sb.WriteString(evalCounts(res).String())
	sb.WriteString("== report ==\n")
	sb.WriteString(pipe.Report().Summary())
	return sb.String()
}

// canonicalRun pushes one program through a fresh pipeline under cfg
// and returns its canonical rendering.
func canonicalRun(t *testing.T, name, src string, cfg Config) string {
	t.Helper()
	pipe := New(cfg)
	res, err := pipe.CompileAndAnalyze(name, src)
	if err != nil {
		t.Fatalf("%s: pipeline error: %v", name, err)
	}
	return canonical(pipe, res)
}

// TestDifferentialSerialParallel: for a corpus slice and every
// configuration variant, any worker count produces byte-identical
// canonical output to the serial run.
func TestDifferentialSerialParallel(t *testing.T) {
	progs := corpus.TestSuite(8)
	variants := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"interproc", Config{Interprocedural: true}},
		{"smallsets", Config{Analysis: core.Options{SmallSets: true}}},
		{"withcf", Config{WithCF: true}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, p := range progs {
				serial := canonicalRun(t, p.Name, p.Source, v.cfg)
				for _, jobs := range []int{2, 8} {
					cfg := v.cfg
					cfg.Jobs = jobs
					if got := canonicalRun(t, p.Name, p.Source, cfg); got != serial {
						t.Fatalf("%s: jobs=%d diverges from serial run", p.Name, jobs)
					}
				}
			}
		})
	}
}

// TestDifferentialCacheHit: a warm-cache run returns results
// byte-identical to both its own cold run and an uncached
// recomputation, and the warm pass actually hits (>= 90%).
func TestDifferentialCacheHit(t *testing.T) {
	progs := corpus.TestSuite(12)
	for _, jobs := range []int{1, 4} {
		jobs := jobs
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			cache := NewCache()
			cold := make([]string, len(progs))
			for i, p := range progs {
				cold[i] = canonicalRun(t, p.Name, p.Source, Config{Jobs: jobs, Cache: cache})
			}
			pre := cache.Stats()
			for i, p := range progs {
				warm := canonicalRun(t, p.Name, p.Source, Config{Jobs: jobs, Cache: cache})
				if warm != cold[i] {
					t.Fatalf("%s: warm-cache run differs from cold run", p.Name)
				}
			}
			post := cache.Stats()
			hits, misses := post.Hits-pre.Hits, post.Misses-pre.Misses
			if rate := float64(hits) / float64(hits+misses); rate < 0.9 {
				t.Fatalf("warm pass hit rate %.2f < 0.90 (hits=%d misses=%d)", rate, hits, misses)
			}
			for i, p := range progs {
				if plain := canonicalRun(t, p.Name, p.Source, Config{Jobs: jobs}); plain != cold[i] {
					t.Fatalf("%s: cached run differs from uncached recomputation", p.Name)
				}
			}
		})
	}
}

// TestDifferentialUnderFault: the failure paths are equivalent too —
// an injected per-function fault produces the same canonical output
// (same failures, same quarantine, same degraded answers) at any
// worker count. Injected faults fire at stage entry, so the IR is
// never left half-mutated and the comparison is exact.
func TestDifferentialUnderFault(t *testing.T) {
	for _, stage := range []string{StageMem2Reg, StageESSA, StageSplit, StageLessThan, StageAliasEval} {
		stage := stage
		t.Run(stage, func(t *testing.T) {
			mk := func(jobs int) Config {
				return Config{Jobs: jobs, Fault: &FaultConfig{Stage: stage, Func: "fill"}}
			}
			serial := canonicalRun(t, "t", testSrc, mk(1))
			if !strings.Contains(serial, "injected fault") {
				t.Fatalf("fault did not fire in serial run")
			}
			for _, jobs := range []int{2, 8} {
				if got := canonicalRun(t, "t", testSrc, mk(jobs)); got != serial {
					t.Fatalf("jobs=%d: faulted run diverges from serial:\n--- serial ---\n%s\n--- jobs=%d ---\n%s",
						jobs, serial, jobs, got)
				}
			}
		})
	}
}

// TestDifferentialEvaluateJobs: Evaluate's workers, each with its own
// evaluation workspace over one shared plan, produce the serial report
// for the paper's full row set (CF and ST included), and that report is
// alias.Evaluate's. CI runs it under the race detector.
func TestDifferentialEvaluateJobs(t *testing.T) {
	for _, p := range append(corpus.Spec()[:4], corpus.TestSuite(6)...) {
		var reps []string
		for _, jobs := range []int{1, 4} {
			pipe := New(Config{Jobs: jobs, WithCF: true, WithST: true})
			res, err := pipe.CompileAndAnalyze(p.Name, p.Source)
			if err != nil {
				t.Fatalf("%s: pipeline error: %v", p.Name, err)
			}
			ba := alias.NewBasic(res.Module)
			lt := alias.NewSRAA(res.LT)
			rows := []alias.Analysis{ba, lt, alias.NewChain(ba, lt), res.ST, alias.NewChain(ba, res.CF)}
			got := res.Evaluate(rows...).String()
			if want := alias.Evaluate(res.Module, rows...).String(); got != want {
				t.Fatalf("%s: jobs=%d harness report differs from alias.Evaluate:\n%s\n%s", p.Name, jobs, got, want)
			}
			reps = append(reps, got)
		}
		if reps[0] != reps[1] {
			t.Fatalf("%s: jobs=4 report differs from serial:\n%s\n%s", p.Name, reps[0], reps[1])
		}
	}
}
