package harness

import (
	"fmt"
	"testing"

	"repro/internal/alias"
	"repro/internal/csmith"
	"repro/internal/soundcheck"
)

// TestParallelSoundnessSweep is the differential soundness sweep of
// the parallel driver: >= 200 generated programs go through the
// sharded, cache-backed pipeline, and every LT fact and every
// definitive alias verdict the driver produces is validated against a
// concrete execution by the internal/interp oracle. Seeds are fixed,
// so a failure names the exact program that reproduces it.
func TestParallelSoundnessSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	const programs = 200

	type verdict struct {
		ltViolations    []string
		aliasViolations []string
		checks          int
		earlyExit       error
		degraded        string
	}

	items := make([]BatchItem, programs)
	srcs := make([]string, programs)
	for i := range items {
		seed := int64(4000 + i)
		src := csmith.Generate(csmith.Config{
			Seed: seed, MaxPtrDepth: 2 + i%5, Stmts: 25 + i%20,
		})
		items[i] = BatchItem{Name: fmt.Sprintf("sweep_seed%d", seed), Src: src}
		srcs[i] = src
	}

	cache := NewCache()
	// The oracle runs on the worker too: interpretation is the
	// expensive half of the sweep and each program's execution is
	// independent.
	outs := RunBatch(Config{Cache: cache}, 4, items,
		func(i int, out *BatchOutcome) {
			if out.Err != nil {
				return
			}
			v := &verdict{}
			rep, err := soundcheck.CheckLT(out.Res.Module, out.Res.LT, "main")
			if err != nil {
				// Generated programs may divide by a zero-valued
				// expression at runtime; those executions end early
				// and still validate every block they reached.
				v.earlyExit = err
			}
			if rep != nil {
				v.ltViolations = rep.Violations
				v.checks += rep.ChecksPerformed
			}
			ba := alias.NewBasic(out.Res.Module)
			lt := alias.NewSRAA(out.Res.LT)
			arep, _ := soundcheck.CheckAlias(out.Res.Module, alias.NewChain(ba, lt), "main")
			if arep != nil {
				v.aliasViolations = arep.Violations
				v.checks += arep.ChecksPerformed
			}
			if r := out.Pipe.Report(); !r.Ok() {
				v.degraded = r.String()
			}
			out.Value = v
		}, nil)

	checks, earlyExits := 0, 0
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("%s: pipeline error: %v\nprogram:\n%s", out.Name, out.Err, srcs[i])
		}
		v := out.Value.(*verdict)
		if v.degraded != "" {
			t.Fatalf("%s: pipeline degraded on a generated program:\n%s\nprogram:\n%s",
				out.Name, v.degraded, srcs[i])
		}
		if len(v.ltViolations) > 0 {
			t.Fatalf("%s: LT adequacy violated:\n%v\nprogram:\n%s", out.Name, v.ltViolations, srcs[i])
		}
		if len(v.aliasViolations) > 0 {
			t.Fatalf("%s: alias verdicts violated:\n%v\nprogram:\n%s", out.Name, v.aliasViolations, srcs[i])
		}
		checks += v.checks
		if v.earlyExit != nil {
			earlyExits++
		}
	}
	if checks == 0 {
		t.Fatal("sweep performed zero dynamic checks; the oracle is not engaging")
	}
	t.Logf("sweep: %d programs, %d dynamic checks, %d early exits, cache %s",
		programs, checks, earlyExits, cache.Stats())
}
