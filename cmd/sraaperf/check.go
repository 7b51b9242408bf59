package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/alias"
	"repro/internal/harness"
	"repro/internal/soundcheck"
)

// expectedJSON records, per workload and seed ("*" where the seed does
// not apply), the aa-eval query count of every analysis: the workload's
// size. A mismatch means the inputs drifted, and the run fails. Seeds
// 1 (development) and 2 (held out) are recorded.
//
//go:embed expected.json
var expectedJSON []byte

func expectedQueries(workload string, seed int64) (map[string]int, bool) {
	var all map[string]map[string]map[string]int
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		panic(fmt.Sprintf("expected.json: %v", err)) // embedded at build time
	}
	byseed := all[workload]
	if q, ok := byseed["*"]; ok {
		return q, true
	}
	q, ok := byseed[strconv.FormatInt(seed, 10)]
	return q, ok
}

// checkExpected compares the run's query counts with the recorded ones.
func checkExpected(o *outcome, workload string, opt runOpts, got counts) {
	if opt.smoke {
		return
	}
	want, ok := expectedQueries(workload, opt.seed)
	if !ok {
		o.infof("no recorded query counts for seed %d; drift check skipped", opt.seed)
		return
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name].Queries != want[name] {
			o.problemf("workload drifted: %s answered %d queries, %d recorded", name, got[name].Queries, want[name])
		}
	}
	if len(got) != len(want) {
		o.problemf("workload drifted: %d analyses evaluated, %d recorded", len(got), len(want))
	}
}

// checkSoundness analyzes p with the harness defaults and runs main under
// the interpreter, checking every LT fact and every BA+LT verdict on
// the live values it meets. An execution that stops early (a generated
// program dividing by zero) still validates every block it reached.
func checkSoundness(o *outcome, p program) {
	pipe := harness.New(harness.Config{})
	res, err := pipe.CompileAndAnalyze(p.name, p.src)
	if err != nil {
		o.problemf("soundcheck %s: %v", p.name, err)
		return
	}
	lt, _ := soundcheck.CheckLT(res.Module, res.LT, "main")
	ba := alias.NewBasic(res.Module)
	al, _ := soundcheck.CheckAlias(res.Module, alias.NewChain(ba, alias.NewSRAA(res.LT)), "main")
	for _, rep := range []*soundcheck.Report{lt, al} {
		if rep != nil && !rep.Ok() {
			o.problemf("soundcheck %s: %s", p.name, rep)
		}
	}
}
