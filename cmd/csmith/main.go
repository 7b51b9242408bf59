// Command csmith generates a random mini-C program, mirroring the
// paper artifact's random.sh script. The output compiles with the
// minic frontend and is suitable input for cmd/sraa and cmd/pdgeval.
//
// With -check it turns into a crash-triage fuzzer: every generated
// program is pushed through the hardened pipeline, and any program
// that provokes a contained failure (panic or verifier error) is
// persisted to -crash-dir as a corpus-format repro file (replayable
// with `fuzz -replay -corpus <dir>`) plus a human triage note with
// the command line that reproduces it. The run exits non-zero when
// any crash was found. With -state DIR each seed's verdict is
// journaled as it completes, so a killed sweep resumed with -resume
// skips the seeds it already covered and still produces the same
// triage files as an uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/csmith"
	"repro/internal/driver"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/persist"
)

// verdict is the journaled residue of one seed's check: everything
// the serial triage phase needs, so a resumed run reproduces the same
// repro files without re-analyzing completed seeds. Note holds the
// deterministic report summary (timings excluded on purpose).
type verdict struct {
	Failed    bool   `json:"failed"`
	Signature string `json:"signature,omitempty"`
	Fatal     string `json:"fatal,omitempty"`
	Note      string `json:"note,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 1, "random seed (output is deterministic per seed)")
	depth := flag.Int("depth", 3, "maximum pointer nesting depth (the paper uses 2..7)")
	stmts := flag.Int("stmts", 60, "approximate number of statements")
	check := flag.Bool("check", false, "run each generated program through the hardened pipeline and triage failures instead of printing the source")
	runs := flag.Int("runs", 1, "with -check: number of consecutive seeds to test, starting at -seed")
	crashDir := flag.String("crash-dir", "crashes", "with -check: directory for offending programs and their reproducer notes")
	timeout := flag.Duration("timeout", 10*time.Second, "with -check: per-stage budget deadline")
	jobs := flag.Int("jobs", runtime.NumCPU(), "with -check: seeds checked concurrently (triage output stays in seed order)")
	useCache := flag.Bool("cache", false, "with -check: share a memo cache across seeds (engages only with -timeout 0; budgeted runs bypass it)")
	cacheDir := flag.String("persist-cache", "", "with -check: durable memo store directory (engages only with -timeout 0)")
	stateDir := flag.String("state", "", "with -check: checkpoint directory; seeds are journaled as they complete")
	resume := flag.Bool("resume", false, "with -state: reuse the existing journal, skipping completed seeds")
	injectOOB := flag.Bool("inject-oob", false, "append one guaranteed out-of-bounds array store to func_1 (for sanitizer soundness sweeps); off, the output is byte-identical to earlier releases")
	flag.Parse()

	cfg := func(s int64) csmith.Config {
		return csmith.Config{Seed: s, MaxPtrDepth: *depth, Stmts: *stmts, InjectOOB: *injectOOB}
	}

	if !*check {
		fmt.Print(csmith.Generate(cfg(*seed)))
		return 0
	}

	cache, err := driver.OpenCache(*useCache, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	items := make([]harness.BatchItem, *runs)
	for i := range items {
		s := *seed + int64(i)
		items[i] = harness.BatchItem{
			Name: fmt.Sprintf("csmith_seed%d", s),
			Src:  csmith.Generate(cfg(s)),
		}
	}

	ctx, stop := driver.SignalContext()
	defer stop()
	var ck *harness.BatchCheckpoint
	if *stateDir != "" {
		c, err := driver.OpenState(*stateDir, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer c.Close()
		ck = harness.NewBatchCheckpoint[verdict](c, "")
	}

	crashes := 0
	_, completed, runErr := harness.RunBatchCtx(ctx,
		harness.Config{Timeout: *timeout, WithCF: true, Cache: cache}, *jobs, items,
		ck,
		// Worker side: also exercise the evaluation path, the other
		// common crash surface, then distill the verdict the serial
		// triage phase (and the journal) consumes.
		func(i int, out *harness.BatchOutcome) {
			if out.Err == nil && out.Res != nil {
				out.Res.Evaluate()
			}
			v := verdict{}
			rep := out.Pipe.Report()
			if out.Err != nil || !rep.Ok() {
				v.Failed = true
				if len(rep.Failures) > 0 {
					v.Signature = rep.Failures[0].Signature()
				} else if out.Err != nil {
					v.Signature = "compile:error"
				}
				if out.Err != nil {
					v.Fatal = out.Err.Error()
				}
				v.Note = rep.Summary()
			}
			out.Value = v
		},
		// Serial side: triage in seed order, so reruns produce the
		// same reproducers whatever the worker count.
		func(i int, out *harness.BatchOutcome) {
			v := out.Value.(verdict)
			if !v.Failed {
				return
			}
			s := *seed + int64(i)
			crashes++
			if werr := persistCrash(*crashDir, out.Name, s, cfg(s), items[i].Src, v); werr != nil {
				fmt.Fprintf(os.Stderr, "csmith: cannot persist crash for seed %d: %v\n", s, werr)
			} else {
				fmt.Fprintf(os.Stderr, "csmith: seed %d provoked a failure; reproducer saved under %s\n",
					s, *crashDir)
			}
		})
	if runErr != nil {
		driver.Resumable("csmith", completed, *runs, *stateDir)
		return driver.ExitInterrupted
	}
	if cache != nil {
		fmt.Fprintf(os.Stderr, "cache: %s\n", cache.Stats())
	}
	if crashes > 0 {
		fmt.Fprintf(os.Stderr, "csmith: %d of %d seed(s) failed\n", crashes, *runs)
		return 1
	}
	fmt.Printf("csmith: %d seed(s) passed the hardened pipeline cleanly\n", *runs)
	return 0
}

// persistCrash writes the offending program as a corpus-format repro
// (seed, generator config, and failure signature in the header, the
// source as the body) plus a triage note with the exact command lines
// that recreate and replay it. Both files are written atomically and
// reproduce byte-identically on a resumed run.
func persistCrash(dir, name string, seed int64, cfg csmith.Config, src string, v verdict) error {
	conf := fmt.Sprintf("depth=%d stmts=%d", cfg.MaxPtrDepth, cfg.Stmts)
	if cfg.InjectOOB {
		conf += " inject-oob"
	}
	e := &fuzz.Entry{
		Name:      name,
		Lang:      "c",
		Oracle:    "pipeline",
		Expect:    "fail",
		Seed:      seed,
		Config:    conf,
		Signature: v.Signature,
		Src:       src,
	}
	if _, wErr := fuzz.WriteEntry(dir, e); wErr != nil {
		return wErr
	}
	note := fmt.Sprintf("# reproduce the input:\n#   go run ./cmd/csmith -seed %d -depth %d -stmts %d\n",
		seed, cfg.MaxPtrDepth, cfg.Stmts)
	note += fmt.Sprintf("# replay the repro:\n#   go run ./cmd/fuzz -replay -corpus %s\n\n", dir)
	if v.Fatal != "" {
		note += fmt.Sprintf("fatal error:\n%s\n\n", v.Fatal)
	}
	note += v.Note
	return persist.AtomicWriteFile(filepath.Join(dir, name+".txt"), []byte(note), 0o644)
}
