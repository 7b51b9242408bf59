package harness

import (
	"sync/atomic"
	"testing"

	"repro/internal/alias"
	"repro/internal/ir"
)

// panicLeaf answers MayAlias, except that it panics on its k-th query
// about a pointer of function fn: a leaf that breaks in the middle of
// a function, after the rows before it have tallied that function's
// earlier pairs.
type panicLeaf struct {
	fn    string
	k     int64
	calls atomic.Int64
}

func (l *panicLeaf) Name() string { return "PANIC" }

func (l *panicLeaf) Alias(a, b alias.Location) alias.Result {
	if (inFunc(a.Ptr, l.fn) || inFunc(b.Ptr, l.fn)) && l.calls.Add(1) == l.k {
		panic("panicLeaf: k-th pair")
	}
	return alias.MayAlias
}

func inFunc(v ir.Value, fn string) bool {
	f, _ := ir.ValueID(v)
	return f != nil && f.FName == fn
}

// mayLeaf is panicLeaf's row without the panic.
type mayLeaf struct{}

func (mayLeaf) Name() string                           { return "PANIC" }
func (mayLeaf) Alias(a, b alias.Location) alias.Result { return alias.MayAlias }

// TestEvaluatePanicFallsBackToMayAlias: a leaf that panics on the
// fifth pair of fill, once BA, LT and BA+LT have tallied the pairs
// before it, leaves fill counted as MayAlias on every row and every
// other function counted as without the panic, serially and with four
// workers.
func TestEvaluatePanicFallsBackToMayAlias(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		p, res := run(t, Config{Jobs: jobs})
		ba := alias.NewBasic(res.Module)
		lt := alias.NewSRAA(res.LT)
		rows := func(last alias.Analysis) []alias.Analysis {
			return []alias.Analysis{ba, lt, alias.NewChain(ba, lt), last}
		}

		want := alias.NewReport(res.Module.Name, rows(mayLeaf{})...)
		for _, f := range res.Module.Funcs {
			if f.FName == "fill" {
				alias.MayAliasOnly(f, want, rows(mayLeaf{})...)
			} else {
				alias.EvaluateFunc(f, want, rows(mayLeaf{})...)
			}
		}
		if c := want.PerAnalysis["BA"]; c.No == 0 {
			t.Fatal("the other functions must disambiguate pairs for the check to mean anything")
		}

		leaf := &panicLeaf{fn: "fill", k: 5}
		got := res.Evaluate(rows(leaf)...)
		if leaf.calls.Load() < leaf.k {
			t.Fatalf("jobs=%d: the leaf was asked %d times about fill, never panicked", jobs, leaf.calls.Load())
		}
		if got.String() != want.String() {
			t.Errorf("jobs=%d: report after the panic\n%s\nwant fill as MayAlias and the rest unchanged\n%s", jobs, got, want)
		}
		if stages := p.Report().DegradedBy("fill"); len(stages) != 1 || stages[0] != StageAliasEval {
			t.Errorf("jobs=%d: fill degraded by %v, want [%s]", jobs, stages, StageAliasEval)
		}
	}
}
