// Command sraaperf is the repository's benchmark: one command that
// measures the analysis stack end to end and layer by layer on four
// workloads, and checks that every answer it timed is correct.
//
//	sraaperf -seed N -out DIR            all four workloads, one child process each
//	sraaperf -trace 1 -seed N -out DIR   the traced run: per-layer metrics and trace files
//	sraaperf -workload W -seed N -seconds S -trace 0|1
//	                                     one workload in this process
//	sraaperf -compare PARENT_DIR CHANGE_DIR
//	                                     paired runs of two commits, one verdict per metric
//
// The workloads are batch-synth (one 10k-function synthetic module),
// batch-corpus (the paper's 116-program corpus), serve-warm (16
// programs against a warm in-process server) and serve-cold (a fresh
// random program per request). End-to-end metrics are taken with
// tracing off; a separate traced run records spans around every call
// into a layer and reports each layer's self time. Seed 1 is the
// development seed and seed 2 is held out for checking claims.
// README.md holds the workload, metric and layer tables and the seed
// runs.
//
// Each workload run prints its metrics as "workload metric value
// unit" lines, then, as its last line, one JSON object with the keys
// correct, attempted, failed and metrics. It exits 1 when any check
// fails.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/persist"
)

// defaultSeconds is a run's timed length unless -seconds says
// otherwise; BENCHMARK.json's run_seconds matches it.
const defaultSeconds = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sraaperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process (default: all four, one child process each)")
	seed := fs.Int64("seed", 1, "input seed: 1 for development, 2 held out for checking claims")
	seconds := fs.Int("seconds", defaultSeconds, "timed length of each workload run")
	trace := fs.Int("trace", 0, "1 for the traced run: per-layer metrics instead of end-to-end ones")
	out := fs.String("out", "", "directory for results.json and, with -trace 1, trace-<workload>.json")
	smoke := fs.Bool("smoke", false, "tiny inputs, for the package test")
	compare := fs.Bool("compare", false, "compare two directories of runs: -compare PARENT_DIR CHANGE_DIR")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds -compare judges by")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: sraaperf -compare PARENT_DIR CHANGE_DIR")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *benchFile, stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fs.Usage()
		return 2
	}
	opt := runOpts{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, smoke: *smoke,
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *name == "" {
		return runAll(opt, *out, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	return runOne(w, opt, *out, stdout, stderr)
}

// metricValue is one metric as the result line reports it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a workload run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a workload run as results.json keeps it.
type report struct {
	result
	Info     []string `json:"info,omitempty"`
	Problems []string `json:"problems,omitempty"`
}

// results is results.json: every workload of one run of the command.
type results struct {
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Started   time.Time         `json:"started"`
	Go        string            `json:"go"`
	Workloads map[string]report `json:"workloads"`
}

// toReport turns an outcome into its report: every end-to-end metric
// for an untraced run, every per-layer metric for a traced one.
func toReport(o *outcome, traced bool) (report, error) {
	defs, vals := endToEnd, o.e2e
	if traced {
		defs, vals = perLayer, o.layer
	}
	r := report{result: result{
		Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{},
	}, Info: o.info, Problems: o.problems}
	r.Correct = len(o.problems) == 0 && o.failed == 0 && o.attempted > 0
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok && !traced {
			return r, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", m.name, v)
		}
		r.Metrics[m.name] = metricValue{v, m.unit}
	}
	return r, nil
}

// failedCheck prefixes the output line of each failed check.
const failedCheck = "FAILED CHECK: "

// runOne runs one workload in this process and prints its report.
func runOne(w workload, opt runOpts, out string, stdout, stderr io.Writer) int {
	o, err := runWorkload(context.Background(), w, opt)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	rep, err := toReport(o, opt.trace)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	if out != "" && o.tr != nil {
		data, err := o.tr.marshalTrace(w.name, opt.seed)
		if err == nil {
			err = persist.AtomicWriteFile(filepath.Join(out, "trace-"+w.name+".json"), data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: trace: %v\n", w.name, err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "# %s: seed %d, %s\n", w.name, opt.seed, w.why)
	for _, line := range rep.Info {
		fmt.Fprintf(stdout, "# %s: %s\n", w.name, line)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stdout, "# %s: %s%s\n", w.name, failedCheck, p)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, m.name, strconv.FormatFloat(rep.Metrics[m.name].Value, 'g', -1, 64), m.unit)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in turn, each in a child process of this
// binary so that each one's peak RSS is its own, and writes
// results.json when out is set.
func runAll(opt runOpts, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	all := results{
		Seed: opt.seed, Seconds: int(opt.seconds / time.Second), Started: time.Now().UTC(),
		Go: runtime.Version(), Workloads: map[string]report{},
	}
	if opt.trace {
		all.Trace = 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(opt.seed),
			"-seconds", fmt.Sprint(all.Seconds), "-trace", fmt.Sprint(all.Trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		if opt.smoke {
			args = append(args, "-smoke")
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		runErr := cmd.Run()
		rep, err := childReport(buf.Bytes(), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			code = 1
			continue
		}
		var exitErr *exec.ExitError
		if runErr != nil && !errors.As(runErr, &exitErr) {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, runErr)
		}
		if runErr != nil || !rep.Correct {
			code = 1
		}
		all.Workloads[w.name] = rep
	}
	if out != "" {
		data, err := json.MarshalIndent(all, "", "  ")
		if err == nil {
			err = persist.AtomicWriteFile(filepath.Join(out, "results.json"), append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if code == 0 {
		fmt.Fprintln(stdout, "all workloads correct")
	}
	return code
}

// childReport copies a workload run's output to stdout, except its
// result line, which it parses together with the info lines.
func childReport(output []byte, stdout io.Writer) (report, error) {
	var rep report
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		return rep, errors.New("no output")
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
		if _, info, ok := strings.Cut(l, ": "); ok && strings.HasPrefix(l, "# ") {
			if p, ok := strings.CutPrefix(info, failedCheck); ok {
				rep.Problems = append(rep.Problems, p)
			} else {
				rep.Info = append(rep.Info, info)
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep.result); err != nil {
		return rep, fmt.Errorf("result line: %w", err)
	}
	return rep, nil
}
