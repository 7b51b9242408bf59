package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the command: the smoke
// test runs all workloads, which re-executes this binary once per
// workload with the environment variable set.
func TestMain(m *testing.M) {
	if os.Getenv("SRAAPERF_AS_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at tiny sizes, untraced and traced,
// through the all-workloads mode, and checks the reports, the
// correctness checks and the trace files.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("SRAAPERF_AS_MAIN", "1")
	dir := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		out := filepath.Join(dir, "trace"+trace)
		var stdout, stderr bytes.Buffer
		code := run([]string{"-smoke", "-seconds", "1", "-trace", trace, "-out", out}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\nstdout:\n%s\nstderr:\n%s", trace, code, stdout.String(), stderr.String())
		}
		data, err := os.ReadFile(filepath.Join(out, "results.json"))
		if err != nil {
			t.Fatal(err)
		}
		var res results
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		for _, w := range workloads {
			rep, ok := res.Workloads[w.name]
			if !ok {
				t.Fatalf("trace %s: %s missing from results.json", trace, w.name)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 || len(rep.Problems) > 0 {
				t.Errorf("trace %s: %s: correct=%t attempted=%d failed=%d problems=%v",
					trace, w.name, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
			for _, m := range defs {
				v, ok := rep.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("trace %s: %s: metric %s missing or mislabeled: %+v", trace, w.name, m.name, v)
				}
				if trace == "0" && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; end-to-end metrics are never 0", w.name, m.name, v.Value)
				}
			}
			if !strings.Contains(stdout.String(), fmt.Sprintf("%s %s ", w.name, defs[0].name)) {
				t.Errorf("trace %s: no %q line printed for %s", trace, defs[0].name, w.name)
			}
			if trace == "1" {
				var tf struct {
					Spans []span `json:"spans"`
				}
				data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
					t.Errorf("%s: trace file holds no spans (err %v)", w.name, err)
				}
				if rep.Metrics["alias.eval.ms"].Value <= 0 || rep.Metrics["core.lessthan.ms"].Value <= 0 {
					t.Errorf("%s: layer times missing: %+v", w.name, rep.Metrics)
				}
			}
		}
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.median and statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 6, 3, 9},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if m := median(tc.xs); m != tc.med || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("%v: median %v q1 %v q3 %v, want %v %v %v", tc.xs, m, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
}

func TestPercentileAndSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	if p := percentile(xs, 99); p != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", p)
	}
	if p := percentile(xs, 50); p != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", p)
	}
	if p := percentile(xs[:10], 99); p != 1000 {
		t.Errorf("p99 of 10 samples = %v, want the maximum", p)
	}
	// The tail rule: a percentile is a tail only with minBeyond samples
	// past it.
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
	}{{1000, 99, 10}, {999, 99, 9}, {2000, 99, 20}, {100, 90, 10}, {99, 90, 9}, {10, 99, 0}} {
		if b := beyond(tc.n, tc.p); b != tc.beyond {
			t.Errorf("beyond(%d, p%v) = %d, want %d", tc.n, tc.p, b, tc.beyond)
		}
	}
	if beyond(999, 99) >= minBeyond || beyond(1000, 99) < minBeyond {
		t.Error("p99 must need 1000 samples to count as a tail")
	}
}

// TestOpenLoopTimesFromScheduledSend drives the open loop against a
// server slower than the arrival rate: requests queue behind the two
// connections, and their latency must include that wait.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	const service = 40 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte(`{"degraded":false,"alias":{},"elapsed_ms":40}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.hc.CloseIdleConnections()

	// Ten requests due every 5 ms: two connections drain one request
	// per 20 ms, so the queue grows throughout.
	sched := make([]time.Duration, 10)
	bodies := make([][]byte, len(sched))
	for i := range sched {
		sched[i] = time.Duration(i) * 5 * time.Millisecond
		bodies[i] = []byte(`{}`)
	}
	answers, _, _, failure := openLoop(c, func() int { return 0 }, bodies, sched)
	if failure != "" {
		t.Fatal(failure)
	}
	for i, a := range answers {
		if a.err != nil || a.status != http.StatusOK {
			t.Fatalf("request %d: status %d err %v", i, a.status, a.err)
		}
		if a.sent.Before(a.sched) {
			t.Errorf("request %d sent before it was due", i)
		}
		if a.latency() < a.done.Sub(a.sent) {
			t.Errorf("request %d: latency %v shorter than its time on the wire %v", i, a.latency(), a.done.Sub(a.sent))
		}
	}
	// The last request, due at 45 ms, cannot be sent before four
	// requests have gone through each connection (160 ms), so it waits
	// about three service times, and that wait is part of its latency.
	last := answers[len(answers)-1]
	if wait := last.sent.Sub(last.sched); wait < 2*service {
		t.Errorf("last request waited %v for a connection, want at least %v", wait, 2*service)
	}
	if last.latency() < 3*service {
		t.Errorf("last request's latency %v < %v: the queue wait was not charged", last.latency(), 3*service)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		// Overlapping children cover [10, 60] once, not twice.
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},
		// A child sticking out of its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 2, Name: "g", StartNS: 20, EndNS: 30},
		// A child nested inside another child adds no coverage.
		{ID: 6, Parent: 1, Name: "d", StartNS: 15, EndNS: 25},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestVerdicts(t *testing.T) {
	series := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i%3)
		}
		return out
	}
	parent := series(100, 1) // 100..102: quartile spread 2
	for _, tc := range []struct {
		name   string
		change []float64
		bound  float64
		want   string
	}{
		{"faster everywhere", series(80, 1), 0.1, "improved"},
		{"within noise", series(100.5, 1), 0.1, "no worse than bound"},
		{"slower past the bound", series(120, 1), 0.1, "regressed"},
		{"spread wider than the bound", series(101, 1), 0.001, "unresolved"},
	} {
		if got, _ := verdict(parent, tc.change, tc.bound, false); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	if got, wins := verdict(parent, series(120, 1), 0.1, true); got != "improved" || wins != 1 {
		t.Errorf("higher-is-better gain: %q wins %v", got, wins)
	}
}

// TestCompare writes ten alternating pairs of runs in which the change
// is 30% slower on one workload and checks that -compare names it.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	write := func(side string, i int, slower float64) {
		res := results{Seed: 1, Seconds: 20, Go: "go", Workloads: map[string]report{},
			Started: start.Add(time.Duration(2*i) * time.Minute)}
		if (side == "change") == (i%2 == 0) {
			res.Started = res.Started.Add(time.Minute)
		}
		for _, w := range workloads {
			rep := report{result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}}
			for _, m := range endToEnd {
				v := 100 + float64(i%3)
				if w.name == "batch-synth" && m.name == "latency_p50_ms" {
					v *= slower
				}
				rep.Metrics[m.name] = metricValue{v, m.unit}
			}
			res.Workloads[w.name] = rep
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		run := filepath.Join(dir, side, fmt.Sprintf("run%02d", i))
		if err := os.MkdirAll(run, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(run, "results.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < minPairs; i++ {
		write("parent", i, 1)
		write("change", i, 1.3)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-benchmark", filepath.Join("..", "..", "BENCHMARK.json"), "-compare",
		filepath.Join(dir, "parent"), filepath.Join(dir, "change")}, &stdout, &stderr)
	if code != 3 {
		t.Fatalf("exit %d, want 3 (regression)\n%s%s", code, stdout.String(), stderr.String())
	}
	var regressed []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasSuffix(line, "regressed") {
			regressed = append(regressed, strings.Join(strings.Fields(line)[:2], " "))
		}
	}
	if !reflect.DeepEqual(regressed, []string{"batch-synth latency_p50_ms"}) {
		t.Errorf("regressed rows %v\n%s", regressed, stdout.String())
	}
	if strings.Contains(stdout.String(), "did not alternate") {
		t.Errorf("alternating pairs reported as not alternating:\n%s", stdout.String())
	}
}

// TestBenchmarkJSON validates the benchmark definition at the root of
// the repository against the limits it must meet and against the
// metrics this command reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
	var def struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []map[string]string
		EndToEnd   []map[string]any `json:"end_to_end"`
		PerLayer   []map[string]any `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		t.Fatal(err)
	}
	if def.RunSeconds != defaultSeconds || def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want %d", def.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(def.Paths, []string{"cmd/sraaperf"}) || len(def.Command) == 0 {
		t.Errorf("paths %v command %v", def.Paths, def.Command)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}

	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the command runs %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		checkName(w["name"])
		if len(w) != 2 || w["name"] != workloads[i].name || w["why"] != workloads[i].why || len(w["why"]) > 200 {
			t.Errorf("workload %d is %v, the command has %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}

	check := func(kind string, got []map[string]any, want []metric, withBound bool, max int) {
		if len(got) != len(want) || len(got) > max {
			t.Fatalf("%s: %d metrics, the command reports %d (at most %d allowed)", kind, len(got), len(want), max)
		}
		for i, m := range got {
			name, _ := m["name"].(string)
			unit, _ := m["unit"].(string)
			better, _ := m["better"].(string)
			checkName(name)
			if !unitRE.MatchString(unit) || (better != "higher" && better != "lower") {
				t.Errorf("%s: %s: unit %q better %q", kind, name, unit, better)
			}
			if (metric{name, unit, better}) != want[i] {
				t.Errorf("%s %d: %s/%s/%s, the command reports %+v", kind, i, name, unit, better, want[i])
			}
			size := 3
			if withBound {
				size = 4
				if b, ok := m["bound"].(float64); !ok || b <= 0 || b > 0.25 {
					t.Errorf("%s: bound %v not in (0, 0.25]", name, m["bound"])
				}
			}
			if len(m) != size {
				t.Errorf("%s: keys %v", name, m)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd, true, 16)
	check("per_layer", def.PerLayer, perLayer, false, 128)

	setup := 0.0
	for _, m := range def.EndToEnd {
		if m["name"] == "setup_s" {
			setup = m["bound"].(float64)
		}
	}
	for _, m := range def.EndToEnd {
		if b := m["bound"].(float64); b > setup {
			t.Errorf("%s's bound %v exceeds setup_s's %v; setup_s must have the largest", m["name"], b, setup)
		}
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(data))
	}
}
