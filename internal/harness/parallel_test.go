package harness

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/csmith"
)

// TestDeterminismAcrossJobs is the regression net for
// map-iteration-order leaks in report generation: ten runs of the
// same module at worker counts 1..10 must render identically, byte
// for byte.
func TestDeterminismAcrossJobs(t *testing.T) {
	srcs := map[string]string{
		"handwritten": testSrc,
		"generated":   csmith.Generate(csmith.Config{Seed: 321, MaxPtrDepth: 4, Stmts: 80}),
	}
	for name, src := range srcs {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			var want string
			for jobs := 1; jobs <= 10; jobs++ {
				got := canonicalRun(t, name, src, Config{Jobs: jobs, Interprocedural: true})
				if jobs == 1 {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("jobs=%d renders differently than jobs=1", jobs)
				}
			}
		})
	}
}

// TestQuarantineUnderConcurrency: with the pool running wide, a
// fault in one function must degrade that function only; every other
// function's answers match a clean serial run exactly.
func TestQuarantineUnderConcurrency(t *testing.T) {
	_, clean := run(t, Config{})
	p, res := run(t, Config{Jobs: 8, Fault: &FaultConfig{Stage: StageMem2Reg, Func: "fill"}})
	degr := p.Report().DegradedFuncs()
	if len(degr) != 1 || degr[0] != "fill" {
		t.Fatalf("expected exactly fill degraded, got %v", degr)
	}
	for _, fn := range []string{"sum", "main"} {
		if got, want := funcCounts(res, fn), funcCounts(clean, fn); got != want {
			t.Fatalf("quarantining fill changed %s under concurrency: clean %+v, got %+v", fn, want, got)
		}
	}
	if got := funcCounts(res, "fill"); got.No != 0 {
		t.Fatalf("quarantined fill still claims NoAlias: %+v", got)
	}
}

// TestRunBatchOrderAndEquivalence: program-level sharding returns
// outcomes in input order, invokes post in input order, and produces
// the same canonical output as a serial per-program loop.
func TestRunBatchOrderAndEquivalence(t *testing.T) {
	progs := corpus.TestSuite(10)
	items := make([]BatchItem, len(progs))
	want := make([]string, len(progs))
	for i, p := range progs {
		items[i] = BatchItem{Name: p.Name, Src: p.Source}
		want[i] = canonicalRun(t, p.Name, p.Source, Config{})
	}
	var postOrder []int
	outs := RunBatch(Config{}, 4, items,
		func(i int, out *BatchOutcome) {
			if out.Err != nil {
				return
			}
			out.Value = canonical(out.Pipe, out.Res)
		},
		func(i int, out *BatchOutcome) { postOrder = append(postOrder, i) })
	for i, out := range outs {
		if out.Name != items[i].Name {
			t.Fatalf("outcome %d is %q, want %q", i, out.Name, items[i].Name)
		}
		if out.Err != nil {
			t.Fatalf("%s: %v", out.Name, out.Err)
		}
		if out.Value.(string) != want[i] {
			t.Fatalf("%s: batched run differs from serial per-program run", out.Name)
		}
	}
	for i, idx := range postOrder {
		if i != idx {
			t.Fatalf("post ran out of order: %v", postOrder)
		}
	}
}

// TestRunBatchCompileErrors: a broken program fails its own slot and
// nothing else.
func TestRunBatchCompileErrors(t *testing.T) {
	items := []BatchItem{
		{Name: "good1", Src: testSrc},
		{Name: "bad", Src: "int main( { return }"},
		{Name: "good2", Src: testSrc},
	}
	outs := RunBatch(Config{}, 3, items, func(i int, out *BatchOutcome) {
		if rep := out.Pipe.Report(); !rep.Ok() {
			out.Value = rep.String()
		}
	}, nil)
	if outs[1].Err == nil {
		t.Fatal("broken program produced no error")
	}
	for _, i := range []int{0, 2} {
		if outs[i].Err != nil {
			t.Fatalf("%s: healthy program failed: %v", outs[i].Name, outs[i].Err)
		}
		if outs[i].Value != nil {
			t.Fatalf("%s: healthy program degraded:\n%s", outs[i].Name, outs[i].Value)
		}
	}
}

// TestRunBatchDropsPipelines: a program's pipeline is garbage once its
// work returns, before the batch does, so a batch never holds every
// program's IR at once. With one job, the first program's Pipeline
// must be finalized while the last program's work runs; post and the
// returned outcomes see Pipe and Res nil.
func TestRunBatchDropsPipelines(t *testing.T) {
	items := []BatchItem{{Name: "first", Src: testSrc}, {Name: "second", Src: testSrc}, {Name: "last", Src: testSrc}}
	freed := make(chan struct{})
	collected := false
	check := func(where string, i int, out *BatchOutcome) {
		if out.Pipe != nil || out.Res != nil {
			t.Errorf("%s %d: Pipe or Res still set after work", where, i)
		}
	}
	outs := RunBatch(Config{}, 1, items, func(i int, out *BatchOutcome) {
		if out.Err != nil || out.Pipe == nil || out.Res == nil {
			t.Fatalf("%s: work sees err %v, pipe %p, res %p", out.Name, out.Err, out.Pipe, out.Res)
		}
		switch i {
		case 0:
			runtime.SetFinalizer(out.Pipe, func(*Pipeline) { close(freed) })
		case len(items) - 1:
			for try := 0; try < 100 && !collected; try++ {
				runtime.GC()
				select {
				case <-freed:
					collected = true
				case <-time.After(10 * time.Millisecond):
				}
			}
		}
	}, func(i int, out *BatchOutcome) { check("post", i, out) })
	for i, out := range outs {
		check("outcome", i, out)
	}
	if !collected {
		t.Fatal("the first program's pipeline was still reachable while the last program ran")
	}
}

// TestRunBatchSharedCache: textually repeated programs across a batch
// hit the shared cache even when workers race on it.
func TestRunBatchSharedCache(t *testing.T) {
	// Same name for every copy: the canonical rendering embeds the
	// module name, and the point here is output equality via cache.
	var items []BatchItem
	for i := 0; i < 12; i++ {
		items = append(items, BatchItem{Name: "copy", Src: testSrc})
	}
	cache := NewCache()
	var base string
	outs := RunBatch(Config{Cache: cache}, 4, items,
		func(i int, out *BatchOutcome) {
			if out.Err == nil {
				out.Value = canonical(out.Pipe, out.Res)
			}
		}, nil)
	for _, out := range outs {
		if out.Err != nil {
			t.Fatalf("%s: %v", out.Name, out.Err)
		}
		if base == "" {
			base = out.Value.(string)
		} else if out.Value.(string) != base {
			t.Fatalf("%s: identical program produced different output via cache", out.Name)
		}
	}
	st := cache.Stats()
	// 12 copies x 3 functions: at most one miss per distinct function.
	if st.Hits < 30 {
		t.Fatalf("shared cache barely hit: %s", st)
	}
}
