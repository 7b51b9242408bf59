package main

import (
	"context"
	"time"

	"repro/internal/alias"
	"repro/internal/budget"
	"repro/internal/harness"
)

// serveBudget is the per-request budget of the benchmark's server (the
// value serve.Config defaults to) and of the in-process replays.
var serveBudget = budget.Spec{Timeout: 5 * time.Second, MaxSteps: 2_000_000}

// compileStages are the harness stages Pipeline.Compile records; the
// rest of a request's timings belong to Analyze.
var compileStages = map[string]bool{
	harness.StageParse: true, harness.StageLower: true, harness.StageMem2Reg: true,
}

// sanitizeTotals sums the sanitizer's verdicts over a replay pass.
type sanitizeTotals struct{ checks, unknown int }

// replayPass answers the requests ks in process the way the server
// does: one budgeted harness pipeline per request sharing cache, then
// the alias counts and (serve-cold) the sanitizer. With a tracer each
// request gets a span holding harness.compile and harness.analyze
// spans, whose children are the stage timings the harness records;
// alias.eval and sanitize.analyze are timed here. What the stage
// timings do not cover is the harness's own overhead.
func replayPass(ctx context.Context, in *serveInputs, cache *harness.Cache, ks []int, tr *tracer, san *sanitizeTotals) passResult {
	pr := newPassResult(len(ks))
	mark := tr.mark()
	measure(&pr, func() {
		root := tr.begin("pass", 0, 0)
		for i, k := range ks {
			p := in.program(k)
			trace := tr.mark() + 1
			rs := tr.begin("request", root, trace)
			pipe := harness.NewCtx(ctx, harness.Config{
				Timeout: serveBudget.Timeout, MaxSteps: serveBudget.MaxSteps,
				Jobs: 1, Cache: cache, CacheBudgeted: true,
			})
			t0 := time.Now()
			m, err := pipe.Compile(p.name, p.src)
			if err != nil {
				pr.failures[i] = err.Error()
				tr.end(rs)
				continue
			}
			t1 := time.Now()
			res, _ := pipe.Analyze(m) // non-strict: the error is always nil
			t2 := time.Now()
			if tr != nil {
				spans := [2]int{tr.add("harness.compile", rs, trace, t0, t1), tr.add("harness.analyze", rs, trace, t1, t2)}
				at := [2]time.Time{t0, t1}
				for _, st := range pipe.Report().Timings {
					phase := 1
					if compileStages[st.Stage] {
						phase = 0
					}
					tr.add(stageSpan[st.Stage], spans[phase], trace, at[phase], at[phase].Add(st.D))
					at[phase] = at[phase].Add(st.D)
				}
			}
			es := tr.begin("alias.eval", rs, trace)
			ba := alias.NewBasic(m)
			lt := alias.NewSRAA(res.LT)
			rep := res.Evaluate(ba, lt, alias.NewChain(ba, lt))
			tr.end(es)
			pr.progs[i] = countsOf(rep)
			if in.cold {
				ss := tr.begin("sanitize.analyze", rs, trace)
				sum := res.Sanitize().Summarize()
				tr.end(ss)
				if san != nil {
					san.checks += sum.Checks
					san.unknown += sum.Unknown
				}
			}
			if hr := pipe.Report(); !hr.Ok() {
				pr.failures[i] = "degraded: " + hr.Summary()
			}
			tr.end(rs)
		}
		tr.end(root)
	})
	pr.stages, pr.stageAlloc = tr.layerTotals(mark)
	return pr
}

// serveTraced completes a traced serve run. The open loop's requests
// become client spans: each runs from its scheduled send to its answer,
// with its queue wait and the server's elapsed time as children, so
// its self time is the wire (HTTP, JSON and admission). Then, for the
// rest of opt.seconds, untraced and traced replays of the same request
// inputs alternate in process, sharing one cache, and give the layer
// times. cache0 and cache1 are the server's cache counters before and
// after the open loop.
func serveTraced(ctx context.Context, o *outcome, in *serveInputs, open []answer, cache0, cache1 harness.CacheStats, queuedMax int, genLate, replayFor time.Duration) {
	tr := newTracer()
	o.tr = tr
	var server, wire, kb []float64
	for _, a := range open {
		if a.status != 200 {
			continue
		}
		trace := tr.mark() + 1
		id := tr.add("serve.request", 0, trace, a.sched, a.done)
		tr.add("serve.wait", id, trace, a.sched, a.sent)
		tr.add("serve.server", id, trace, a.done.Add(-time.Duration(a.serverMS*float64(time.Millisecond))), a.done)
		server = append(server, a.serverMS)
		kb = append(kb, float64(a.bytes)/1024)
	}
	for i, self := range selfTimes(tr.spans) {
		if tr.spans[i].Name == "serve.request" {
			wire = append(wire, float64(self)/1e6)
		}
	}
	l := o.layer
	l["serve.server_ms.p50"] = median(server)
	l["serve.server_ms.p99"] = percentile(server, 99)
	l["serve.wire_ms.p50"] = median(wire)
	l["serve.wire_ms.p99"] = percentile(wire, 99)
	l["serve.queued.max"] = float64(queuedMax)
	l["serve.resp_kb.mean"] = mean(kb)
	l["serve.gen_late_ms.max"] = ms(genLate)
	hits := cache1.Hits - cache0.Hits
	lookups := hits + cache1.Misses - cache0.Misses
	l["harness.cache.lookups"] = float64(lookups)
	l["harness.cache.hit_ratio"] = ratio(float64(hits), float64(lookups))
	l["harness.cache.entries"] = float64(cache1.Entries)
	o.infof("cache over the open loop: %d hits of %d lookups, %d entries", hits, lookups, cache1.Entries)

	// One replay pass is warmPrograms requests: serve-warm's whole
	// cycle, or that many fresh serve-cold programs.
	next := replayBase
	pass := func() []int {
		ks := make([]int, warmPrograms)
		for j := range ks {
			if in.cold {
				ks[j] = next
				next++
			} else {
				ks[j] = j
			}
		}
		return ks
	}
	cache := harness.NewCache()
	if !in.cold {
		replayPass(ctx, in, cache, pass(), nil, nil) // fill the cache, as the server's set-up does
	}
	// The census counts the layers' work on one pass's inputs, untimed.
	census := pass()
	var lc layerCounts
	var progs []program
	for _, k := range census {
		progs = append(progs, in.program(k))
	}
	stagedPass(ctx, progs, nil, &lc, false)

	var plain, traced []passResult
	var san sanitizeTotals
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < replayFor {
		plain = append(plain, replayPass(ctx, in, cache, pass(), nil, nil))
		san = sanitizeTotals{}
		traced = append(traced, replayPass(ctx, in, cache, pass(), tr, &san))
	}
	for n, p := range append(plain, traced...) {
		for i, f := range p.failures {
			if f != "" {
				o.problemf("replay pass %d request %d: %s", n, i, f)
			}
		}
	}
	last := traced[len(traced)-1].total()
	layerFromPasses(o, traced, float64(lc.analyzedInstrs))
	setCounts(o, lc, last)
	l["sanitize.checks"] = float64(san.checks)
	l["sanitize.unknown_pct"] = pct(float64(san.unknown), float64(san.checks))
	covered := 0.0
	for _, st := range pipelineStages {
		covered += stageMedian(traced, stageSpan[st])
	}
	l["harness.overhead_pct"] = pct(stageMedian(traced, "harness.compile")+stageMedian(traced, "harness.analyze"), covered)
	pw, tw := medianWall(plain), medianWall(traced)
	l["trace.overhead_pct"] = pct(tw-pw, pw)
	gcFromPasses(o, plain)
	o.infof("traced: %d replay rounds of %d requests; pass_ms untraced %.1f traced %.1f", len(traced), warmPrograms, pw, tw)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
