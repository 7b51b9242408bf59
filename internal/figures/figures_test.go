package figures

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/persist/journal"
)

// The goldens pin every row and summary number of every figure except
// timings. Full inputs are the figures EXPERIMENTS.md reports; -short
// and the race detector run reduced inputs against their own goldens.
// Regenerate both with:
//
//	go test ./internal/figures -run Golden -update
//	go test -short ./internal/figures -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files from current output")

func reduced() bool { return testing.Short() || raceEnabled }

// paper holds every figure, computed once for all tests.
type paper struct {
	suite, spec *AATable // Figure 8; Figures 9 and 10
	scale       *ScaleTable
	pdg         *PDGTable
}

var (
	paperOnce sync.Once
	paperFigs paper
	paperErr  error
)

func paperTables(t *testing.T) paper {
	t.Helper()
	paperOnce.Do(func() {
		n, perDepth := 100, PerDepth
		if reduced() {
			n, perDepth = 10, 2
		}
		b := Batch{Jobs: runtime.NumCPU()}
		p := &paperFigs
		if p.suite, paperErr = AAEval(b, "", corpus.TestSuite(n)); paperErr != nil {
			return
		}
		b.Config.WithCF = true
		if p.spec, paperErr = AAEval(b, "", corpus.Spec()); paperErr != nil {
			return
		}
		if p.scale, paperErr = Scalability(50, p.suite, p.spec); paperErr != nil {
			return
		}
		b.Config.WithCF = false
		p.pdg, paperErr = PDG(b, "", perDepth)
	})
	if paperErr != nil {
		t.Fatal(paperErr)
	}
	return paperFigs
}

func TestGolden(t *testing.T) {
	p := paperTables(t)
	for _, fig := range []struct{ name, text string }{
		{"fig8", renderAA(p.suite, "BA", "LT", "BA+LT") + fmt.Sprintf("lift_pct,%.4f\n", p.suite.Lift())},
		{"fig9", renderAA(p.spec, "BA", "LT", "BA+LT")},
		{"fig10", renderAA(p.spec, "BA", "BA+LT", "BA+CF")},
		{"fig11", renderScale(p.scale)},
		{"fig12", renderPDG(p.pdg)},
	} {
		t.Run(fig.name, func(t *testing.T) { checkGolden(t, fig.name, fig.text) })
	}
}

func renderAA(t *AATable, cols ...string) string {
	var sb strings.Builder
	sb.WriteString("benchmark,queries")
	for _, an := range cols {
		fmt.Fprintf(&sb, ",%s_no,%s_pct", an, an)
	}
	sb.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%s,%d", r.Name, r.Queries)
		for _, an := range cols {
			fmt.Fprintf(&sb, ",%d,%.2f", r.No[an], r.Pct(an))
		}
		sb.WriteString("\n")
	}
	_, queries := t.Sum("BA")
	fmt.Fprintf(&sb, "total,%d", queries)
	for _, an := range cols {
		no, _ := t.Sum(an)
		fmt.Fprintf(&sb, ",%d,%.2f", no, t.Pct(an))
	}
	sb.WriteString("\n")
	return sb.String()
}

func renderScale(s *ScaleTable) string {
	var sb strings.Builder
	sb.WriteString("benchmark,instructions,constraints,pops,vars\n")
	for _, r := range s.Rows {
		fmt.Fprintf(&sb, "%s,%d,%d,%d,%d\n", r.Name, r.LT.Instrs, r.LT.Constraints, r.LT.Pops, r.LT.Vars)
	}
	fmt.Fprintf(&sb, "slope,%.4f\nintercept,%.4f\nr2,%.4f\npops_per_constraint,%.4f\n",
		s.Fit.Slope, s.Fit.Intercept, s.Fit.R2, s.PopsPerConstraint)
	sb.WriteString("set_size,sets\n")
	for _, sz := range s.SetSizes {
		fmt.Fprintf(&sb, "%d,%d\n", sz.Size, sz.Sets)
	}
	fmt.Fprintf(&sb, "small_sets_pct,%.4f\n", s.SmallSets)
	return sb.String()
}

func renderPDG(t *PDGTable) string {
	var sb strings.Builder
	sb.WriteString("program,depth,ba_nodes,balt_nodes,failed\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%s,%d,%d,%d,%t\n", r.Name, r.Depth, r.BA, r.BALT, r.Failed)
	}
	sb.WriteString("depth,ba_avg,balt_avg\n")
	for _, d := range t.Depths {
		fmt.Fprintf(&sb, "%d,%.2f,%.2f\n", d.Depth, d.BA, d.BALT)
	}
	fmt.Fprintf(&sb, "total,%d,%d,%.4f\n", t.BA, t.BALT, t.Ratio())
	return sb.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	if reduced() {
		name += ".short"
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("%s differs from %s (regenerate with -update if intended):\n--- want ---\n%s\n--- got ---\n%s",
			name, path, want, got)
	}
}

// rowsWhere lists the names of the rows that satisfy keep.
func rowsWhere(t *AATable, keep func(Row) bool) []string {
	var names []string
	for _, r := range t.Rows {
		if keep(r) {
			names = append(names, r.Name)
		}
	}
	return names
}

// TestFig8Shapes: BA beats LT on most programs and LT beats BA on
// some; BA+LT is at least as precise as either, and more precise than
// BA wherever LT finds anything except on suite-004-random, whose 17
// LT pairs BA finds too.
func TestFig8Shapes(t *testing.T) {
	s := paperTables(t).suite
	if got := rowsWhere(s, func(r Row) bool { return r.No["BA+LT"] < max(r.No["BA"], r.No["LT"]) }); got != nil {
		t.Errorf("BA+LT weaker than a component on %v", got)
	}
	if got := fmt.Sprint(rowsWhere(s, func(r Row) bool { return r.No["LT"] > 0 && r.No["BA+LT"] == r.No["BA"] })); got != "[suite-004-random]" {
		t.Errorf("LT adds nothing to BA on %s, want only suite-004-random", got)
	}
	if baWins := len(rowsWhere(s, func(r Row) bool { return r.No["BA"] > r.No["LT"] })); 2*baWins <= len(s.Rows) {
		t.Errorf("BA beats LT on %d of %d programs, want most", baWins, len(s.Rows))
	}
	if rowsWhere(s, func(r Row) bool { return r.No["LT"] > r.No["BA"] }) == nil {
		t.Error("LT beats BA nowhere")
	}
	if s.Lift() <= 0 {
		t.Errorf("LT lifts BA by %.2f%%", s.Lift())
	}
}

// TestFig9Shapes: LT beats BA only on lbm and bzip2; BA+LT improves
// on BA and LT everywhere, by at least 10 points on lbm, milc and
// gobmk only.
func TestFig9Shapes(t *testing.T) {
	s := paperTables(t).spec
	if got := fmt.Sprint(rowsWhere(s, func(r Row) bool { return r.Pct("LT") > r.Pct("BA") })); got != "[lbm bzip2]" {
		t.Errorf("LT beats BA on %s, want [lbm bzip2]", got)
	}
	if got := rowsWhere(s, func(r Row) bool { return r.No["BA+LT"] <= r.No["BA"] || r.No["BA+LT"] < r.No["LT"] }); got != nil {
		t.Errorf("BA+LT does not improve on its components on %v", got)
	}
	if got := fmt.Sprint(rowsWhere(s, func(r Row) bool { return r.Pct("BA+LT")-r.Pct("BA") >= 10 })); got != "[lbm milc gobmk]" {
		t.Errorf("BA+LT gains 10 points over BA on %s, want [lbm milc gobmk]", got)
	}
}

// TestFig10Shapes: BA+LT beats BA+CF on lbm, milc and gobmk only;
// BA+CF beats BA everywhere, and omnetpp about three times over
// BA+LT.
func TestFig10Shapes(t *testing.T) {
	s := paperTables(t).spec
	if got := fmt.Sprint(rowsWhere(s, func(r Row) bool { return r.Pct("BA+LT") > r.Pct("BA+CF") })); got != "[lbm milc gobmk]" {
		t.Errorf("BA+LT beats BA+CF on %s, want [lbm milc gobmk]", got)
	}
	if got := rowsWhere(s, func(r Row) bool { return r.No["BA+CF"] <= r.No["BA"] }); got != nil {
		t.Errorf("BA+CF does not improve on BA on %v", got)
	}
	for _, r := range s.Rows {
		if ratio := r.Pct("BA+CF") / r.Pct("BA+LT"); r.Name == "omnetpp" && (ratio < 2.5 || ratio > 4) {
			t.Errorf("omnetpp: BA+CF/BA+LT = %.2f, want about 3", ratio)
		}
	}
}

// TestFig11Shapes: constraints grow linearly with instructions, each
// constraint is popped a small constant number of times, and most LT
// sets hold at most two elements. The fit needs the 50 largest of all
// 116 programs; the reduced inputs hold only 26.
func TestFig11Shapes(t *testing.T) {
	s := paperTables(t).scale
	if !reduced() && s.Fit.R2 <= 0.95 {
		t.Errorf("R² = %.3f, want > 0.95", s.Fit.R2)
	}
	if s.PopsPerConstraint < 1 || s.PopsPerConstraint > 3 {
		t.Errorf("%.2f pops per constraint, want a small constant", s.PopsPerConstraint)
	}
	if s.SmallSets < 85 {
		t.Errorf("%.1f%% of LT sets hold at most two elements, want most", s.SmallSets)
	}
}

// TestFig12Shapes: BA+LT yields several times more memory nodes than
// BA, in every depth bucket.
func TestFig12Shapes(t *testing.T) {
	p := paperTables(t).pdg
	if p.Ratio() < 3 {
		t.Errorf("BA+LT/BA memory nodes = %.2f, want several times", p.Ratio())
	}
	for _, d := range p.Depths {
		if d.BALT <= d.BA {
			t.Errorf("depth %d: BA+LT %.1f nodes, BA %.1f", d.Depth, d.BALT, d.BA)
		}
	}
}

// TestResumeReplaysRows: a figure rerun over its journal replays every
// row, degradation summary included, but a rerun that adds a column
// recomputes its rows rather than print the column as zeros.
func TestResumeReplaysRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.wal")
	state, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { state.Close() }()
	progs := corpus.TestSuite(3)
	// A one-step budget degrades every solve, so rows carry a Diag.
	b := Batch{Jobs: 2, State: state, Config: harness.Config{MaxSteps: 1}}
	want, err := AAEval(b, "testsuite:", progs)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rows[0].Diag == "" {
		t.Fatalf("%s: a one-step budget did not degrade the row", want.Rows[0].Name)
	}
	state.Close()

	if state, err = journal.OpenCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	b.State = state
	got, err := AAEval(b, "testsuite:", progs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got.Rows {
		w := want.Rows[i]
		if r.Elapsed != 0 {
			t.Errorf("%s: recomputed despite a complete journal", r.Name)
		}
		w.Elapsed = 0
		if !reflect.DeepEqual(r, w) {
			t.Errorf("%s: replayed row differs:\n got %+v\nwant %+v", r.Name, r, w)
		}
	}

	b.Config.WithCF = true
	withCF, err := AAEval(b, "testsuite:", progs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range withCF.Rows {
		if _, ok := r.No["BA+CF"]; !ok || r.Elapsed == 0 {
			t.Errorf("%s: replayed a row without the BA+CF column", r.Name)
		}
	}
}
