package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// minPairs is the fewest parent/change pairs a comparison accepts, and
// winShare the share of pairs a change must win to claim a gain.
const (
	minPairs = 10
	winShare = 0.9
)

// bounds reads each end-to-end metric's bound from the benchmark
// definition.
func bounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range def.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// loadRuns reads every results.json directly under dir's
// subdirectories (one -out directory per run), in directory name
// order, and splits them into untraced and traced runs.
func loadRuns(dir string) (plain, traced []results, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*", "results.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		var r results
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace == 1 {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	return plain, traced, nil
}

// verdict judges one metric on one workload from paired runs, by the
// rule of the choosing-metrics guide: a gain needs the change to win at
// least winShare of the pairs (ties count for neither) and the medians
// to differ by more than the parent's quartile spread; a metric whose
// spread is wider than its bound is unresolved unless every change run
// beats every parent run; otherwise the change may be worse than the
// parent by at most the bound.
func verdict(parent, change []float64, bound float64, higherBetter bool) (v string, wins float64) {
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	won := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			won++
		}
	}
	wins = float64(won) / float64(len(parent))
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	worse := (cm - pm) / pm
	if higherBetter {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case wins >= winShare && better(cm, pm) && math.Abs(cm-pm) > q3-q1:
		return "improved", wins
	case (q3-q1)/math.Abs(pm) > bound && !allBetter:
		return "unresolved", wins
	case worse > bound:
		return "regressed", wins
	}
	return "no worse than bound", wins
}

func runCompare(parentDir, changeDir, benchFile string, stdout, stderr io.Writer) int {
	bound, err := bounds(benchFile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	parent, parentTraced, err := loadRuns(parentDir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	change, changeTraced, err := loadRuns(changeDir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return compareRuns(parent, change, parentTraced, changeTraced, bound, stdout, stderr)
}

func compareRuns(parent, change, parentTraced, changeTraced []results, bound map[string]float64, stdout, stderr io.Writer) int {
	if len(parent) != len(change) || len(parent) < minPairs {
		fmt.Fprintf(stderr, "need at least %d paired untraced runs per side, have %d parent and %d change\n",
			minPairs, len(parent), len(change))
		return 2
	}
	alternated := true
	for i := range parent {
		parentFirst := parent[i].Started.Before(change[i].Started)
		if i > 0 && parentFirst == parent[i-1].Started.Before(change[i-1].Started) {
			alternated = false
		}
		if parent[i].Seed != change[i].Seed || parent[i].Seconds != change[i].Seconds {
			fmt.Fprintf(stderr, "pair %d: seed or run length differ between the sides\n", i)
			return 2
		}
	}
	if !alternated {
		fmt.Fprintln(stdout, "WARNING: the pairs did not alternate which side ran first")
	}
	fmt.Fprintf(stdout, "%d pairs\n%-13s %-17s %-31s %-31s %6s  %s\n", len(parent),
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	regressed := false
	for _, w := range workloads {
		for _, m := range endToEnd {
			p, c := metricSeries(parent, w.name, m.name), metricSeries(change, w.name, m.name)
			if len(p) != len(parent) || len(c) != len(change) {
				fmt.Fprintf(stdout, "%-13s %-17s missing from some runs\n", w.name, m.name)
				continue
			}
			v, wins := verdict(p, c, bound[m.name], m.better == "higher")
			regressed = regressed || v == "regressed"
			fmt.Fprintf(stdout, "%-13s %-17s %-31s %-31s %5.0f%%  %s\n", w.name, m.name,
				spread(p), spread(c), 100*wins, v)
		}
	}
	if len(parentTraced) > 0 && len(changeTraced) > 0 {
		fmt.Fprintf(stdout, "\nper-layer self time per pass, median of %d parent and %d change traced runs\n",
			len(parentTraced), len(changeTraced))
		for _, w := range workloads {
			for _, m := range perLayer {
				if !strings.HasSuffix(m.name, ".ms") {
					continue
				}
				pm, cm := median(metricSeries(parentTraced, w.name, m.name)), median(metricSeries(changeTraced, w.name, m.name))
				if pm == 0 && cm == 0 {
					continue
				}
				fmt.Fprintf(stdout, "%-13s %-24s %10.2f -> %10.2f ms  %+7.1f%%\n", w.name, m.name, pm, cm, pct(cm-pm, pm))
			}
		}
	}
	if regressed {
		return 3
	}
	return 0
}

func metricSeries(runs []results, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Workloads[workload].Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func spread(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}
