package alias

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/ir"
)

// Counts aggregates query outcomes for one analysis, mirroring the
// output of LLVM's aa-eval pass.
type Counts struct {
	Queries int
	No      int
	May     int
	Must    int
}

// NoAliasPercent is the precision metric used throughout the paper's
// evaluation: the share of queries answered NoAlias.
func (c Counts) NoAliasPercent() float64 {
	if c.Queries == 0 {
		return 0
	}
	return 100 * float64(c.No) / float64(c.Queries)
}

// Report is the outcome of evaluating a set of analyses over one
// module.
type Report struct {
	Module string
	// PerAnalysis holds counts keyed by analysis name, plus one entry
	// per analysis, all over the same query set.
	PerAnalysis map[string]*Counts
	// Order preserves the evaluation order for printing.
	Order []string
}

// NewReport creates an empty report pre-registered for the given
// analyses, ready for incremental filling via EvaluateFunc.
func NewReport(module string, analyses ...Analysis) *Report {
	rep := &Report{Module: module, PerAnalysis: map[string]*Counts{}}
	for _, a := range analyses {
		if _, ok := rep.PerAnalysis[a.Name()]; !ok {
			rep.PerAnalysis[a.Name()] = &Counts{}
			rep.Order = append(rep.Order, a.Name())
		}
	}
	return rep
}

// Evaluate runs the aa-eval protocol: within every function of m, it
// enumerates all unordered pairs of distinct pointer values (function
// arguments, pointer-yielding instructions, and globals used in the
// function) and queries every analysis with element-sized locations.
func Evaluate(m *ir.Module, analyses ...Analysis) *Report {
	rep := NewReport(m.Name, analyses...)
	w := NewPlan(analyses...).NewWorkspace()
	for _, f := range m.Funcs {
		w.EvaluateFunc(f, rep)
	}
	return rep
}

// EvaluateFunc adds one function's all-pairs queries to rep. Exposed
// separately so the hardened harness can wrap each function in its own
// containment region. Callers evaluating many functions should build
// one Plan and reuse a Workspace instead.
func EvaluateFunc(f *ir.Func, rep *Report, analyses ...Analysis) {
	NewPlan(analyses...).NewWorkspace().EvaluateFunc(f, rep)
}

// Plan is the query schedule of one list of analyses, each a report
// row. Chains, nested ones included, are flattened into their leaf
// analyses, and a leaf appearing in several rows (BA in BA, BA+LT and
// BA+CF) is one leaf, answered at most once per pointer pair. A Plan is
// immutable and may be shared by concurrent Workspaces.
type Plan struct {
	rows []Analysis
	// rowLeaves[r] lists row r's leaves in chain order.
	rowLeaves [][]int
	leaves    []Analysis
}

// NewPlan plans the evaluation of analyses.
func NewPlan(analyses ...Analysis) *Plan {
	p := &Plan{rows: analyses, rowLeaves: make([][]int, len(analyses))}
	for r, an := range analyses {
		p.rowLeaves[r] = p.flatten(an, nil)
	}
	return p
}

func (p *Plan) flatten(an Analysis, ids []int) []int {
	if c, ok := an.(*Chain); ok {
		for _, sub := range c.Analyses {
			ids = p.flatten(sub, ids)
		}
		return ids
	}
	// Leaves are shared by identity; a value type that does not admit
	// == gets a leaf per occurrence.
	if reflect.TypeOf(an).Comparable() {
		for id, l := range p.leaves {
			if l == an {
				return append(ids, id)
			}
		}
	}
	p.leaves = append(p.leaves, an)
	return append(ids, len(p.leaves)-1)
}

// unanswered marks a leaf not yet asked about the current pair.
const unanswered Result = -1

// Workspace evaluates functions under a Plan, reusing its buffers from
// one function to the next. It is not safe for concurrent use: keep one
// per goroutine.
type Workspace struct {
	plan *Plan
	vals []ir.Value
	seen map[*ir.Global]bool
	ptrs []Pointer
	idx  []scaledIdx
	// prepared[l] holds leaf l's facts for the current function; nil
	// for leaves without a FuncPreparer, which are asked through Alias.
	prepared []Prepared
	answers  []Result
	counts   []*Counts
}

// NewWorkspace returns an empty workspace for p.
func (p *Plan) NewWorkspace() *Workspace {
	w := &Workspace{
		plan:     p,
		seen:     map[*ir.Global]bool{},
		prepared: make([]Prepared, len(p.leaves)),
		answers:  make([]Result, len(p.leaves)),
		counts:   make([]*Counts, len(p.rows)),
	}
	for l, an := range p.leaves {
		if fp, ok := an.(FuncPreparer); ok {
			w.prepared[l] = fp.NewPrepared()
		}
	}
	return w
}

// EvaluateFunc adds f's all-pairs queries to rep, which must have a
// row for every analysis of the plan.
func (w *Workspace) EvaluateFunc(f *ir.Func, rep *Report) {
	p := w.plan
	clear(w.seen)
	w.vals = appendPointerValues(w.vals[:0], f, w.seen)
	n := len(w.vals)
	if n < 2 {
		return
	}
	w.ptrs, w.idx = w.ptrs[:0], w.idx[:0]
	for _, v := range w.vals {
		var ptr Pointer
		ptr, w.idx = preparePointer(Loc(v), w.idx)
		w.ptrs = append(w.ptrs, ptr)
	}
	for _, pr := range w.prepared {
		if pr != nil {
			pr.Prepare(f, w.ptrs)
		}
	}
	for r, an := range p.rows {
		w.counts[r] = rep.PerAnalysis[an.Name()]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for l := range w.answers {
				w.answers[l] = unanswered
			}
			for r, leaves := range p.rowLeaves {
				// A chain's first definitive leaf answer wins; later
				// leaves are not asked.
				res := MayAlias
				for _, l := range leaves {
					a := w.answers[l]
					if a == unanswered {
						if pr := w.prepared[l]; pr != nil {
							a = pr.Pair(i, j)
						} else {
							a = p.leaves[l].Alias(w.ptrs[i].Loc, w.ptrs[j].Loc)
						}
						w.answers[l] = a
					}
					if a != MayAlias {
						res = a
						break
					}
				}
				c := w.counts[r]
				c.Queries++
				switch res {
				case NoAlias:
					c.No++
				case MustAlias:
					c.Must++
				default:
					c.May++
				}
			}
		}
	}
}

// MayAliasOnly records every unordered pointer pair of f as MayAlias
// for every analysis: the sound degraded substitute when evaluating f
// failed (the pairs still count toward the query total, claiming
// nothing about any of them).
func MayAliasOnly(f *ir.Func, rep *Report, analyses ...Analysis) {
	n := len(PointerValues(f))
	pairs := n * (n - 1) / 2
	for _, an := range analyses {
		c := rep.PerAnalysis[an.Name()]
		c.Queries += pairs
		c.May += pairs
	}
}

// PointerValues collects the pointer-typed values visible in f, in a
// deterministic order: parameters first, then, in instruction order,
// each instruction's not yet collected global operands followed by its
// result.
func PointerValues(f *ir.Func) []ir.Value {
	return appendPointerValues(nil, f, nil)
}

// appendPointerValues appends PointerValues(f) to out. Parameters and
// instruction results are distinct values by construction, so only
// globals are deduplicated, through seen (allocated when nil).
func appendPointerValues(out []ir.Value, f *ir.Func, seen map[*ir.Global]bool) []ir.Value {
	for _, p := range f.Params {
		if ir.IsPtr(p.Typ) {
			out = append(out, p)
		}
	}
	f.Instrs(func(in *ir.Instr) bool {
		for _, a := range in.Args {
			if g, ok := a.(*ir.Global); ok && !seen[g] {
				if seen == nil {
					seen = map[*ir.Global]bool{}
				}
				seen[g] = true
				out = append(out, g)
			}
		}
		if in.HasResult() && ir.IsPtr(in.Typ) {
			out = append(out, in)
		}
		return true
	})
	return out
}

// String renders the report as an aligned table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", r.Module)
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s %10s %8s\n",
		"analysis", "queries", "no", "may", "must", "%no")
	for _, name := range r.Order {
		c := r.PerAnalysis[name]
		fmt.Fprintf(&sb, "%-10s %10d %10d %10d %10d %8.2f\n",
			name, c.Queries, c.No, c.May, c.Must, c.NoAliasPercent())
	}
	return sb.String()
}

// Add sums o's counts into r in place, registering the analyses r
// lacks in o's order.
func (r *Report) Add(o *Report) {
	for _, an := range o.Order {
		c, ok := r.PerAnalysis[an]
		if !ok {
			c = &Counts{}
			r.PerAnalysis[an] = c
			r.Order = append(r.Order, an)
		}
		src := o.PerAnalysis[an]
		c.Queries += src.Queries
		c.No += src.No
		c.May += src.May
		c.Must += src.Must
	}
}

// MergeReports sums reports from several modules (same analysis set).
func MergeReports(name string, reps ...*Report) *Report {
	out := &Report{Module: name, PerAnalysis: map[string]*Counts{}}
	for _, r := range reps {
		out.Add(r)
	}
	return out
}
