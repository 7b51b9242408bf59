// Package figures computes the paper's evaluation (§4) once for every
// client: the aa-eval precision rows of Figures 8–10, the solver
// statistics of Figure 11 and §4.2, and the PDG memory nodes of
// Figure 12. cmd/aaeval, cmd/scalability, cmd/pdgeval, cmd/artifact
// and the root BenchmarkFig8–12 only print the tables built here.
//
// Every figure runs its programs through harness.RunBatchCtx. A row
// is built on the worker, the only place a pipeline or its result is
// read, and holds only deterministic data: the row is also what a
// checkpoint journals, so a resumed run prints the same tables as an
// uninterrupted one.
package figures

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/csmith"
	"repro/internal/harness"
	"repro/internal/persist/journal"
	"repro/internal/stats"
)

// Batch is how a figure runs its programs.
type Batch struct {
	// Ctx interrupts the run; nil never does.
	Ctx context.Context
	// Config carries the hardening flags and the memo cache. WithST
	// and WithCF also add the ST and BA+CF columns to aa-eval.
	Config harness.Config
	// Jobs is how many programs are analyzed at once.
	Jobs int
	// State, when non-nil, journals every completed row.
	State *journal.Checkpoint
}

// Interrupted is the error of a figure cut short by Batch.Ctx: Done
// of its Total programs completed, and are journaled if Batch.State
// is set.
type Interrupted struct{ Done, Total int }

func (e *Interrupted) Error() string {
	return fmt.Sprintf("interrupted at %d/%d", e.Done, e.Total)
}

// run analyzes items, journaling under prefix, and returns the rows
// row builds, in input order. A program whose pipeline fails (a
// frontend error, or any contained failure under Config.Strict)
// fails the figure; the error names every such program.
func run[T any](b Batch, prefix string, items []harness.BatchItem,
	row func(i int, out *harness.BatchOutcome) T) ([]T, error) {
	rows := make([]T, 0, len(items))
	var errs []error
	_, done, err := harness.RunBatchCtx(b.Ctx, b.Config, b.Jobs, items,
		harness.NewBatchCheckpoint[T](b.State, prefix),
		func(i int, out *harness.BatchOutcome) {
			if out.Err == nil {
				out.Value = row(i, out)
			}
		},
		func(i int, out *harness.BatchOutcome) {
			if out.Err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", out.Name, out.Err))
				return
			}
			rows = append(rows, out.Value.(T))
		})
	if err != nil {
		return nil, &Interrupted{Done: done, Total: len(items)}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return rows, nil
}

// diag is the degradation summary of out's pipeline, "" when it ran
// clean. Evaluation and PDG construction add to the report, so it is
// read after them.
func diag(out *harness.BatchOutcome) string {
	if rep := out.Pipe.Report(); !rep.Ok() {
		return rep.Summary()
	}
	return ""
}

// Row is one program's aa-eval result (Figures 8–10) with its LT
// solver statistics (Figure 11, §4.2).
type Row struct {
	Name    string `json:"name"`
	Queries int    `json:"queries"`
	// No counts the no-alias answers of each analysis, keyed by its
	// column name.
	No map[string]int `json:"no"`
	LT core.Stats     `json:"lt"`
	// Diag is the pipeline's degradation summary, "" for a clean run.
	Diag string `json:"diag,omitempty"`
	// Elapsed is the analysis wall-clock time. It differs run to run,
	// so it is never journaled and reads 0 on a replayed row.
	Elapsed time.Duration `json:"-"`
}

// Pct is the share of the row's queries analysis an answers no-alias.
func (r Row) Pct(an string) float64 { return pct(r.No[an], r.Queries) }

func pct(no, queries int) float64 {
	return alias.Counts{Queries: queries, No: no}.NoAliasPercent()
}

// AATable is the aa-eval table of Figures 8–10.
type AATable struct {
	// Order lists the analysis columns.
	Order []string
	// Rows are in input order.
	Rows []Row
}

// AAEval runs the aa-eval protocol, all pairs of pointers per
// function, over progs against BA, LT and BA+LT, plus ST and BA+CF
// when b.Config asks for those analyses.
func AAEval(b Batch, prefix string, progs []corpus.Program) (*AATable, error) {
	t := &AATable{Order: []string{"BA", "LT", "BA+LT"}}
	if b.Config.WithST {
		t.Order = append(t.Order, "ST")
	}
	if b.Config.WithCF {
		t.Order = append(t.Order, "BA+CF")
	}
	var items []harness.BatchItem
	for _, p := range progs {
		items = append(items, harness.BatchItem{Name: p.Name, Src: p.Source})
	}
	// The columns are part of the journal key, so a row journaled
	// without a column never replays into a table that has it.
	rows, err := run(b, prefix+strings.Join(t.Order, ",")+":", items, func(_ int, out *harness.BatchOutcome) Row {
		res := out.Res
		ba := alias.NewBasic(res.Module)
		lt := alias.NewSRAA(res.LT)
		analyses := []alias.Analysis{ba, lt, alias.NewChain(ba, lt)}
		if b.Config.WithST {
			analyses = append(analyses, res.ST)
		}
		if b.Config.WithCF {
			analyses = append(analyses, alias.NewChain(ba, res.CF))
		}
		rep := res.Evaluate(analyses...)
		r := Row{Name: out.Name, Queries: rep.PerAnalysis["BA"].Queries,
			No: map[string]int{}, LT: res.LT.Stats, Diag: diag(out), Elapsed: out.AnalyzeTime}
		for _, an := range rep.Order {
			r.No[an] = rep.PerAnalysis[an].No
		}
		return r
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// Sum totals analysis an's no-alias answers and the queries over
// every row.
func (t *AATable) Sum(an string) (no, queries int) {
	for _, r := range t.Rows {
		no += r.No[an]
		queries += r.Queries
	}
	return no, queries
}

// Pct is analysis an's no-alias share over the whole table.
func (t *AATable) Pct(an string) float64 { return pct(t.Sum(an)) }

// Lift is how much LT adds to BA's no-alias answers, in percent of
// BA's (Figure 8; the paper reports 9.49%).
func (t *AATable) Lift() float64 {
	ba, _ := t.Sum("BA")
	balt, _ := t.Sum("BA+LT")
	return 100 * float64(balt-ba) / float64(ba)
}

// ByQueries returns the rows in ascending query count, ties in input
// order.
func (t *AATable) ByQueries() []Row {
	rows := append([]Row(nil), t.Rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Queries < rows[j].Queries })
	return rows
}

// SetSize is one bucket of the LT set-size distribution.
type SetSize struct{ Size, Sets int }

// ScaleTable is Figure 11 and the §4.2 solver statistics.
type ScaleTable struct {
	// Rows are the programs with the most instructions, most first.
	Rows []Row
	// Fit is the least-squares line of constraints over instructions
	// on Rows (the paper reports R² = 0.992).
	Fit stats.Fit
	// PopsPerConstraint is the worklist pops per constraint on Rows
	// (the paper reports about 2.12).
	PopsPerConstraint float64
	// SetSizes is the LT set-size distribution of every program, not
	// only of Rows, by ascending size.
	SetSizes []SetSize
	// SmallSets is the percentage of those sets with at most two
	// elements (the paper reports over 95%).
	SmallSets float64
}

// Scalability derives Figure 11 from the LT statistics of the rows of
// tables: the n programs with the most instructions, ties in input
// order, and the set sizes of all of them.
func Scalability(n int, tables ...*AATable) (*ScaleTable, error) {
	var rows []Row
	for _, t := range tables {
		rows = append(rows, t.Rows...)
	}
	sizes := map[int]int{}
	total, small := 0, 0
	for _, r := range rows {
		for k, v := range r.LT.SetSizes {
			sizes[k] += v
			total += v
			if k <= 2 {
				small += v
			}
		}
	}
	s := &ScaleTable{SmallSets: 100 * float64(small) / float64(total)}
	for k, v := range sizes {
		s.SetSizes = append(s.SetSizes, SetSize{k, v})
	}
	sort.Slice(s.SetSizes, func(i, j int) bool { return s.SetSizes[i].Size < s.SetSizes[j].Size })

	sort.SliceStable(rows, func(i, j int) bool { return rows[i].LT.Instrs > rows[j].LT.Instrs })
	s.Rows = rows[:min(n, len(rows))]
	var xs, ys []float64
	pops, cons := 0, 0
	for _, r := range s.Rows {
		xs = append(xs, float64(r.LT.Instrs))
		ys = append(ys, float64(r.LT.Constraints))
		pops += r.LT.Pops
		cons += r.LT.Constraints
	}
	fit, err := stats.LinearFit(xs, ys)
	if err != nil {
		return nil, err
	}
	s.Fit = fit
	s.PopsPerConstraint = float64(pops) / float64(cons)
	return s, nil
}

// The §4.3 protocol of Figure 12: PerDepth generated programs of 120
// statements for each pointer nesting depth from 2 to 7.
const (
	PerDepth = 20
	minDepth = 2
	maxDepth = 7
	stmts    = 120
)

// PDGRow is one generated program's PDG memory-node counts.
type PDGRow struct {
	Name  string `json:"name"`
	Depth int    `json:"depth"`
	BA    int    `json:"ba"`
	BALT  int    `json:"balt"`
	// Failed marks a program whose graph construction failed; its
	// counts are 0 and the figure leaves it out.
	Failed bool   `json:"failed,omitempty"`
	Diag   string `json:"diag,omitempty"`
}

// DepthAvg is one depth bucket's average memory nodes per program.
type DepthAvg struct {
	Depth    int
	BA, BALT float64
}

// PDGTable is Figure 12.
type PDGTable struct {
	// Rows are in protocol order, failed programs included.
	Rows []PDGRow
	// BA and BALT total the memory nodes of the programs that built.
	BA, BALT int
	// Depths averages each bucket's nodes over its programs.
	Depths []DepthAvg
}

// Ratio is how many times more memory nodes BA+LT yields than BA (the
// paper reports 6.23).
func (t *PDGTable) Ratio() float64 { return float64(t.BALT) / float64(t.BA) }

// PDG builds the program dependence graph of the first perDepth
// programs of every depth bucket with BA alone and with BA+LT, and
// counts their memory nodes. More nodes mean a more precise graph.
func PDG(b Batch, prefix string, perDepth int) (*PDGTable, error) {
	var items []harness.BatchItem
	var depths []int
	for depth := minDepth; depth <= maxDepth; depth++ {
		for i := 0; i < perDepth; i++ {
			items = append(items, harness.BatchItem{
				Name: fmt.Sprintf("rand-d%d-%02d", depth, i),
				Src: csmith.Generate(csmith.Config{
					Seed: int64(depth*1000 + i), MaxPtrDepth: depth, Stmts: stmts,
				}),
			})
			depths = append(depths, depth)
		}
	}
	rows, err := run(b, prefix, items, func(i int, out *harness.BatchOutcome) PDGRow {
		res := out.Res
		// FlowTracker queries dependences without access sizes and
		// per function, so BA runs at allocation-site granularity
		// (§4.3); the sraa bundle keeps its range support.
		ba := alias.NewBasic(res.Module)
		ba.UnknownSizes = true
		ba.Intraprocedural = true
		both := alias.NewChain(ba, alias.NewSRAAWithRanges(res.LT, res.Ranges))
		r := PDGRow{Name: out.Name, Depth: depths[i]}
		gBA, errA := res.PDG(ba)
		gBoth, errB := res.PDG(both)
		if errA != nil || errB != nil {
			r.Failed = true
		} else {
			r.BA, r.BALT = gBA.MemNodes, gBoth.MemNodes
		}
		r.Diag = diag(out)
		return r
	})
	if err != nil {
		return nil, err
	}
	t := &PDGTable{Rows: rows}
	for depth := minDepth; depth <= maxDepth; depth++ {
		ba, balt := 0, 0
		for _, r := range rows {
			if r.Depth == depth {
				ba += r.BA
				balt += r.BALT
			}
		}
		t.BA += ba
		t.BALT += balt
		t.Depths = append(t.Depths, DepthAvg{depth,
			float64(ba) / float64(perDepth), float64(balt) / float64(perDepth)})
	}
	return t, nil
}
