// Parallel sharding of the hardened pipeline. Two levels exist:
//
//   - Function-level: within one module, the per-function stages
//     (mem2reg, sigma insertion, subtraction splitting, the less-than
//     solve, alias evaluation) fan out across Config.Jobs workers.
//     Module-scope stages (parse, lower, range analysis, Andersen)
//     stay serial — they are whole-module fixed points with shared
//     mutable state and no per-function decomposition.
//   - Program-level: RunBatch shards a corpus of independent programs
//     across workers, one pipeline per program.
//
// Equivalence discipline. Workers never touch shared pipeline state:
// containment captures failures into per-function slots, and the
// calling goroutine records them in module function order after the
// pool drains. Every merge is in declaration order, so reports,
// results, and statistics are byte-identical at any worker count —
// the property the differential test suite pins down.
//
// Quarantine stays per-function under concurrency: a worker that
// panics poisons only its own function's slot. The containment region
// is entered on the worker itself, so the panic never reaches the
// pool machinery, and the skip set is only written by the calling
// goroutine during the ordered merge — a half-rewritten function is
// quarantined exactly as in the serial pipeline, and its neighbors'
// results are unaffected.
package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/persist/journal"
)

// jobs resolves the effective function-level worker count; 0 and 1
// both mean serial execution on the calling goroutine.
func (p *Pipeline) jobs() int {
	if p.cfg.Jobs > 1 {
		return p.cfg.Jobs
	}
	return 1
}

// cacheEnabled reports whether the memo cache participates in this
// run. Budgeted runs bypass it by default — a cached artifact could
// answer where this run's budget would have degraded, which breaks
// the byte-identical determinism the differential suite pins — but
// Config.CacheBudgeted opts in for servers, where that extra
// precision is welcome and sound (degraded solves are never stored;
// see core/memo.go). Fault-injected runs always bypass: their
// outcomes depend on injected state, so memoizing them would let one
// run's degradation leak into another's answers.
func (p *Pipeline) cacheEnabled() bool {
	if p.cfg.Cache == nil || p.cfg.Fault != nil {
		return false
	}
	return p.cfg.CacheBudgeted || (p.cfg.Timeout == 0 && p.cfg.MaxSteps == 0)
}

// runFuncStage applies one per-function stage body to every
// non-quarantined function, fanning across the worker pool when
// Config.Jobs > 1. Failures are captured on the workers into
// per-function slots and recorded — with the matching quarantines —
// in module function order after the pool drains. Returns the first
// failure in function order, for strict mode.
func (p *Pipeline) runFuncStage(stage string, m *ir.Module, body func(*ir.Func)) *StageFailure {
	defer p.timeStage(stage)()
	type target struct {
		i int
		f *ir.Func
	}
	var targets []target
	for i, f := range m.Funcs {
		if !p.skip[f] {
			targets = append(targets, target{i, f})
		}
	}
	fails := make([]*StageFailure, len(m.Funcs))
	run := func(t target) {
		fails[t.i] = p.contain(stage, t.f.FName, true, func() { body(t.f) })
	}
	if jobs := min(p.jobs(), len(targets)); jobs <= 1 {
		for _, t := range targets {
			run(t)
		}
	} else {
		ch := make(chan target)
		var wg sync.WaitGroup
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range ch {
					run(t)
				}
			}()
		}
		for _, t := range targets {
			ch <- t
		}
		close(ch)
		wg.Wait()
	}
	var first *StageFailure
	for i, f := range m.Funcs {
		if fails[i] == nil {
			continue
		}
		p.rep.addFailure(*fails[i])
		p.quarantine(f, stage)
		if first == nil {
			first = fails[i]
		}
	}
	return first
}

// BatchItem is one program of a batch run.
type BatchItem struct {
	Name string
	Src  string
}

// BatchOutcome is what one program's pipeline produced. Value carries
// whatever the worker-side callback computed (an evaluation report, a
// statistics row) to the serial post-processing phase.
type BatchOutcome struct {
	Name string
	Pipe *Pipeline
	Res  *Result
	Err  error
	// AnalyzeTime is the wall-clock cost of the analysis phase alone
	// (excluding Compile). Under program-level sharding it measures
	// the program's own work, though scheduling noise from sibling
	// workers is included.
	AnalyzeTime time.Duration
	Value       any
	// Replayed marks an outcome restored from a checkpoint journal
	// rather than computed this run. Pipe and Res are nil on replayed
	// outcomes; only Name and Value are populated.
	Replayed bool
}

// BatchCheckpoint journals per-item completion so a killed batch run
// can resume without redoing finished work. The journal holds each
// completed outcome's Value, so Value must be a JSON-able T that
// carries everything post reads. Items whose pipeline observed a
// context cancellation, or whose work errored, are never journaled:
// a resumed run recomputes them, which is what keeps the final report
// byte-identical to an uninterrupted run.
type BatchCheckpoint struct {
	c *journal.Checkpoint
	// prefix namespaces item names inside a shared journal, so
	// multi-phase drivers that reuse program names across phases
	// (cmd/artifact) can checkpoint each phase independently.
	prefix string
	decode func(data []byte) (any, bool)
}

// NewBatchCheckpoint journals the T each item's work leaves in Value
// into c under prefix+name, and replays a journaled item as the T it
// decodes to. A record replays only if it re-encodes to the same
// bytes: one written for another shape of T (a renamed, added or
// dropped field) is recomputed, never read as zeros. A nil c yields a
// nil checkpoint, which journals nothing.
func NewBatchCheckpoint[T any](c *journal.Checkpoint, prefix string) *BatchCheckpoint {
	if c == nil {
		return nil
	}
	return &BatchCheckpoint{c: c, prefix: prefix, decode: func(data []byte) (any, bool) {
		var v T
		if json.Unmarshal(data, &v) != nil {
			return nil, false
		}
		again, err := json.Marshal(v)
		return v, err == nil && bytes.Equal(again, data)
	}}
}

func (ck *BatchCheckpoint) key(name string) string { return ck.prefix + name }

// interrupted reports whether an outcome was poisoned by context
// cancellation and therefore describes this (aborted) run rather than
// the input.
func interrupted(out *BatchOutcome) bool {
	return out.Pipe != nil && out.Pipe.Report().Canceled()
}

// RunBatch shards a corpus of independent programs across jobs
// workers, one fresh pipeline per program so quarantine state never
// crosses program boundaries. work, when non-nil, runs on the worker
// goroutine right after analysis — put per-program evaluation there.
// post, when non-nil, runs serially on the calling goroutine in input
// order after all workers drain — put printing and aggregation there.
// Outcomes are returned in input order.
//
// When jobs > 1 the per-program pipelines run with function-level
// sharding disabled (Jobs=1): one level of parallelism is enough to
// fill the machine, and nesting pools would oversubscribe it.
func RunBatch(cfg Config, jobs int, items []BatchItem,
	work func(i int, out *BatchOutcome),
	post func(i int, out *BatchOutcome)) []*BatchOutcome {
	outs, _, _ := RunBatchCtx(context.Background(), cfg, jobs, items, nil, work, post)
	return outs
}

// RunBatchCtx is RunBatch with cooperative cancellation and optional
// checkpointing. It returns the outcomes (input order), the number of
// items that completed this run or were replayed from the checkpoint,
// and ctx.Err() if the run was cut short.
//
// Cancellation semantics: once ctx is done, no new items are
// dispatched and in-flight workers drain — each one finishes quickly
// because the per-item pipelines observe the same ctx through their
// solver budgets and degrade to sound conservative answers. Outcomes
// of undispatched items are nil; outcomes poisoned by the
// cancellation stay in the returned slice (their reports say
// "canceled") but are never journaled, and post is skipped entirely,
// so an interrupted run can never publish or checkpoint results that
// an uninterrupted run would not have produced.
//
// Checkpointing semantics: with ck non-nil, items found in its
// journal are replayed as their journaled Value without
// recomputation, and each item that completes cleanly — ctx still
// live, no work error, no cancellation recorded in its report — is
// journaled from the worker immediately, so a SIGKILL loses at most
// the in-flight items.
func RunBatchCtx(ctx context.Context, cfg Config, jobs int, items []BatchItem,
	ck *BatchCheckpoint,
	work func(i int, out *BatchOutcome),
	post func(i int, out *BatchOutcome)) ([]*BatchOutcome, int, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	if jobs < 1 {
		jobs = 1
	}
	if jobs > len(items) {
		jobs = len(items)
	}
	inner := cfg
	if jobs > 1 {
		inner.Jobs = 1
	}

	outs := make([]*BatchOutcome, len(items))

	// Replay checkpointed items first so the dispatch loop only sees
	// genuinely pending work.
	var pending []int
	for i := range items {
		if ck != nil {
			// An undecodable entry (schema drift, hand-edited state
			// dir) is recomputed rather than trusted.
			if data, ok := ck.c.Done(ck.key(items[i].Name)); ok {
				if v, ok := ck.decode(data); ok {
					outs[i] = &BatchOutcome{Name: items[i].Name, Value: v, Replayed: true}
					continue
				}
			}
		}
		pending = append(pending, i)
	}

	var completed int64 = int64(len(items) - len(pending))
	run := func(i int) {
		it := items[i]
		out := &BatchOutcome{Name: it.Name, Pipe: NewCtx(ctx, inner)}
		m, err := out.Pipe.Compile(it.Name, it.Src)
		if err != nil {
			out.Err = err
		} else {
			start := time.Now()
			out.Res, out.Err = out.Pipe.Analyze(m)
			out.AnalyzeTime = time.Since(start)
		}
		if work != nil {
			work(i, out)
		}
		outs[i] = out
		// Journal only results an uninterrupted run would also have
		// produced: the ctx must still be live (a cancellation racing
		// with completion could have degraded any stage), the report
		// must record no cancellation, and the work must have
		// succeeded. Anything else is recomputed on resume.
		if ctx.Err() == nil && !interrupted(out) && out.Err == nil {
			atomic.AddInt64(&completed, 1)
			if ck != nil && out.Value != nil {
				ck.c.Record(ck.key(it.Name), out.Value)
			}
		}
	}

	if jobs <= 1 {
		for _, i := range pending {
			if ctx.Err() != nil {
				break
			}
			run(i)
		}
	} else {
		ch := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ch {
					run(i)
				}
			}()
		}
	dispatch:
		for _, i := range pending {
			select {
			case ch <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(ch)
		wg.Wait()
	}

	if err := ctx.Err(); err != nil {
		return outs, int(atomic.LoadInt64(&completed)), fmt.Errorf("batch interrupted: %w", err)
	}
	if post != nil {
		for i := range outs {
			post(i, outs[i])
		}
	}
	return outs, int(atomic.LoadInt64(&completed)), nil
}
