// Differential soundness sweep: the sanitizer's verdicts versus the
// interpreter, across generated programs. The contract under test is
// the verdict semantics itself —
//
//   - Safe is refuted by any observed trap of that kind at that
//     instruction;
//   - Unsafe must come with a trapping witness when the access is on
//     the executed path (the injected-OOB programs guarantee one);
//   - default generator output is trap-free, so any Unsafe diagnostic
//     there is a false positive.
package sanitize_test

import (
	"fmt"
	"testing"

	"repro/internal/csmith"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/sanitize"
)

// sweepVerdict is one program's outcome, computed on the worker.
type sweepVerdict struct {
	violations []string
	summary    sanitize.Summary
	// trap is the code of the trap execution ended in, "" for none,
	// and trapAt is where: the verdict outlives the program's IR.
	trap, trapAt string
	// earlyExit is a non-trap runtime error (e.g. division by zero);
	// such executions still validate everything they reached.
	earlyExit error
}

// runSweep pushes programs through pipeline+sanitizer+interpreter and
// applies the soundness assertions; injected selects the
// known-trapping variant of the generator.
func runSweep(t *testing.T, programs int, seedBase int64, injected bool) {
	t.Helper()
	items := make([]harness.BatchItem, programs)
	srcs := make([]string, programs)
	for i := range items {
		seed := seedBase + int64(i)
		src := csmith.Generate(csmith.Config{
			Seed: seed, MaxPtrDepth: 2 + i%5, Stmts: 25 + i%20,
			InjectOOB: injected,
		})
		items[i] = harness.BatchItem{Name: fmt.Sprintf("san_seed%d", seed), Src: src}
		srcs[i] = src
	}

	outs := harness.RunBatch(harness.Config{}, 4, items,
		func(i int, out *harness.BatchOutcome) {
			if out.Err != nil {
				return
			}
			v := &sweepVerdict{}
			rep := out.Res.Sanitize()
			v.summary = rep.Summarize()

			mach := interp.NewMachine(out.Res.Module, interp.Options{})
			_, err := mach.Run("main")
			if err != nil {
				if tr := interp.TrapOf(err); tr != nil && tr.Code != "" {
					v.trap, v.trapAt = tr.Code, fmt.Sprintf("@%s %s", tr.Fn.FName, tr.In)
					// A classified trap refutes a Safe verdict at its
					// (instruction, kind).
					k, ok := sanitize.KindOfTrap(tr.Code)
					if !ok {
						v.violations = append(v.violations,
							fmt.Sprintf("unmapped trap code %q", tr.Code))
					} else if d, found := rep.Find(tr.In, k); found && d.Verdict == sanitize.Safe {
						v.violations = append(v.violations, fmt.Sprintf(
							"UNSOUND: %s proved safe/%s but trapped %s at @%s %s",
							k, d.Layer, tr.Code, tr.Fn.FName, tr.In))
					}
				} else {
					v.earlyExit = err
				}
			}
			out.Value = v
		}, nil)

	var total sanitize.Summary
	total.SafeByLayer = map[string]int{}
	traps, earlyExits := 0, 0
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("%s: pipeline error: %v\nprogram:\n%s", out.Name, out.Err, srcs[i])
		}
		v := out.Value.(*sweepVerdict)
		for _, viol := range v.violations {
			t.Errorf("%s: %s\nprogram:\n%s", out.Name, viol, srcs[i])
		}
		if injected {
			// The injected store is on the main path, so the oracle
			// must observe the out-of-bounds trap; anything else means
			// the generator's guarantee (or the interpreter) broke.
			if v.trap != interp.TrapOOB {
				if v.earlyExit != nil {
					earlyExits++ // died before the injection (e.g. div by zero)
				} else {
					t.Errorf("%s: injected program did not trap oob (trap=%q at %s)\nprogram:\n%s",
						out.Name, v.trap, v.trapAt, srcs[i])
				}
			}
		} else {
			// Default generator output is trap-free (modulo non-memory
			// early exits), so Unsafe diagnostics are false positives.
			if v.trap != "" {
				t.Errorf("%s: default program trapped %s at %s\nprogram:\n%s",
					out.Name, v.trap, v.trapAt, srcs[i])
			}
			if v.summary.Unsafe != 0 {
				t.Errorf("%s: %d unsafe verdicts on a trap-free program\nprogram:\n%s",
					out.Name, v.summary.Unsafe, srcs[i])
			}
			if v.earlyExit != nil {
				earlyExits++
			}
		}
		if v.trap != "" {
			traps++
		}
		total.Checks += v.summary.Checks
		total.Safe += v.summary.Safe
		total.Unsafe += v.summary.Unsafe
		total.Unknown += v.summary.Unknown
		for l, n := range v.summary.SafeByLayer {
			total.SafeByLayer[l] += n
		}
	}
	if total.Checks == 0 {
		t.Fatal("sweep produced zero checks; the sanitizer is not engaging")
	}
	if total.Safe == 0 {
		t.Fatal("sweep proved zero accesses safe; the prover stack is not engaging")
	}
	t.Logf("sweep(%d, injected=%v): %d checks, %d safe, %d unsafe, %d unknown, %d traps, %d early exits; safe by layer: %v",
		programs, injected, total.Checks, total.Safe, total.Unsafe, total.Unknown,
		traps, earlyExits, total.SafeByLayer)
}

// TestSoundnessSweep is the main differential: >= 200 default
// programs, no proved-safe access may trap, no unsafe verdicts at all.
func TestSoundnessSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	runSweep(t, 200, 7000, false)
}

// TestSoundnessSweepInjected re-runs a band of seeds with the
// guaranteed out-of-bounds store: every program must trap oob, and
// Safe verdicts must survive the refutation check at the trap site.
func TestSoundnessSweepInjected(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	runSweep(t, 60, 7200, true)
}

// TestInjectedStoreDiagnosedUnsafe pins the static side of the
// injection: the index-at-length store is proved Unsafe by the
// interval layer, and the dynamic trap lands on that exact
// instruction.
func TestInjectedStoreDiagnosedUnsafe(t *testing.T) {
	src := csmith.Generate(csmith.Config{Seed: 7500, MaxPtrDepth: 2, Stmts: 20, InjectOOB: true})
	p := harness.New(harness.Config{})
	res, err := p.CompileAndAnalyze("inj", src)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Sanitize()

	mach := interp.NewMachine(res.Module, interp.Options{})
	_, rerr := mach.Run("main")
	tr := interp.TrapOf(rerr)
	if tr == nil || tr.Code != interp.TrapOOB {
		t.Fatalf("injected program did not trap oob: %v\nprogram:\n%s", rerr, src)
	}
	d, ok := rep.Find(tr.In, sanitize.KindBounds)
	if !ok {
		t.Fatalf("no bounds diagnostic at the trap site %s", tr.In)
	}
	if d.Verdict != sanitize.Unsafe || d.Layer != sanitize.LayerInterval {
		t.Fatalf("trap site diagnosed %s/%s, want unsafe/interval", d.Verdict, d.Layer)
	}
}
