package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs. The why strings
// are the ones BENCHMARK.json records.
type workload struct {
	name  string
	serve bool
	why   string
}

var workloads = []workload{
	{"batch-synth", false, "one 10k-function synthetic module: whole-module solvers and the frontend dominate, so range-analysis and minic work shows here"},
	{"batch-corpus", false, "the paper's 116-program corpus: pointer-dense functions where the all-pairs alias evaluation dominates and ranges are small"},
	{"serve-warm", true, "16 repeated programs against a filled memo cache: every lookup hits, so the cache read path, ranges and HTTP/JSON set latency"},
	{"serve-cold", true, "a fresh random program per request: every solve misses and stores, and the sanitizer runs, the opposite use of the cache"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOpts is one workload run's settings. smoke shrinks the batch
// inputs so that a run of every workload takes a few seconds, for the
// package test.
type runOpts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	smoke   bool
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 7

// outcome is what one workload run measured and checked.
type outcome struct {
	e2e   map[string]float64 // end-to-end metrics (untraced run)
	layer map[string]float64 // per-layer metrics (traced run)
	// info lines are printed beside the metrics: sample counts,
	// quartiles, query counts.
	info      []string
	attempted int
	failed    int
	// problems lists every correctness failure; any makes the run
	// incorrect.
	problems []string
	tr       *tracer
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) infof(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runWorkload runs w once in this process.
func runWorkload(ctx context.Context, w workload, opt runOpts) (*outcome, error) {
	if w.serve {
		return runServe(ctx, w, opt)
	}
	return runBatch(ctx, w, opt)
}

// metric describes one reported number; the lists below must match
// BENCHMARK.json (the package test checks that they do).
type metric struct {
	name, unit, better string
}

// endToEnd metrics are taken with tracing off. Every workload reports
// every one of them; see README.md for what an operation is on each.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"goodput_pct", "%", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"noalias_pct", "%", "higher"},
}

// layerSpans are the span names of the layer calls, in pipeline order.
// Each yields a <name>.ms (self time per pass) and <name>.alloc_mb
// metric.
var layerSpans = []string{
	"minic.parse", "minic.lower", "ssa.promote", "essa.sigmas",
	"rangeanal.pre", "essa.split", "rangeanal.final", "core.lessthan",
	"andersen.solve", "steens.solve", "alias.eval", "sanitize.analyze",
}

// perLayer metrics come from the traced run. A layer that does not run
// on a workload (Andersen on serve-*, the sanitizer on batch-*) reports
// 0.
var perLayer = func() []metric {
	out := []metric{}
	for _, s := range layerSpans {
		out = append(out, metric{s + ".ms", "ms", "lower"}, metric{s + ".alloc_mb", "MB", "lower"})
	}
	return append(out, []metric{
		{"minic.parse.mb_per_s", "MB/s", "higher"},
		{"minic.instrs", "count", "lower"},
		{"ssa.instrs", "count", "lower"},
		{"essa.sigmas.count", "count", "lower"},
		{"essa.split.count", "count", "lower"},
		{"rangeanal.us_per_instr", "us", "lower"},
		{"core.constraints", "count", "lower"},
		{"core.pops", "count", "lower"},
		{"core.pops_per_constraint", "ratio", "lower"},
		{"core.vars", "count", "lower"},
		{"alias.queries", "count", "lower"},
		{"alias.queries_per_ms", "1/ms", "higher"},
		{"alias.noalias_pct.ba", "%", "higher"},
		{"alias.noalias_pct.ba_lt", "%", "higher"},
		{"alias.noalias_pct.ba_cf", "%", "higher"},
		{"alias.noalias_pct.st", "%", "higher"},
		{"sanitize.checks", "count", "lower"},
		{"sanitize.unknown_pct", "%", "lower"},
		{"harness.cache.lookups", "count", "lower"},
		{"harness.cache.hit_ratio", "ratio", "higher"},
		{"harness.cache.entries", "count", "lower"},
		{"harness.overhead_pct", "%", "lower"},
		{"serve.server_ms.p50", "ms", "lower"},
		{"serve.server_ms.p99", "ms", "lower"},
		{"serve.wire_ms.p50", "ms", "lower"},
		{"serve.wire_ms.p99", "ms", "lower"},
		{"serve.queued.max", "count", "lower"},
		{"serve.resp_kb.mean", "KB", "lower"},
		{"serve.gen_late_ms.max", "ms", "lower"},
		{"go.gc_cycles", "count", "lower"},
		{"go.gc_pause_ms", "ms", "lower"},
		{"trace.overhead_pct", "%", "lower"},
	}...)
}()

// gcStats reads the collector's cycle count and total pause.
func gcStats() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB. Where
// /proc is unavailable it falls back to the memory the Go runtime
// obtained from the OS, which bounds the heap's share of it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// pct is 100*a/b, 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}
