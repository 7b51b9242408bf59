package alias

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
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

	// The current function's pointers by base and by class. baseOf[s]
	// numbers the base with slot s (see baseSlot), or is -1; touched
	// lists the slots set, which classify resets. Bases without a slot,
	// constants and undefs, are numbered through others.
	baseOf  []int32
	touched []int32
	others  []otherBase
	// base[i] numbers ptrs[i]'s base, and class[i] its class.
	base, class []int32
	// keys[i*len(prepared)+l] is leaf l's key of ptrs[i].
	keys []int
	// byClass lists the pointers by class, then by index; class c is
	// byClass[first[c]:first[c+1]].
	byClass, first []int32
	// byBase lists the pointers by base, each base's by class.
	byBase []int32
	// exceptions holds the pairs the leaves list, packed as i<<32 | j;
	// yield is addException, bound once so that passing it to every
	// leaf of every function allocates nothing.
	exceptions []uint64
	yield      func(i, j int)
	// asked counts, per pair of classes, the pairs already asked one
	// by one.
	asked []classPair
}

// otherBase is the number of a base that has no slot.
type otherBase struct {
	v ir.Value
	n int32
}

// classPair is a number of pointer pairs between classes a <= b,
// packed as a<<32 | b.
type classPair struct {
	ab    uint64
	pairs int
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
	w.yield = w.addException
	return w
}

// EvaluateFunc adds f's all-pairs queries to rep, which must have a
// row for every analysis of the plan.
//
// Pairs of pointers with different GEP bases are counted by class. Two
// pointers share a class when every leaf gives them one Key, so every
// leaf's Cross answers all pairs between two classes alike. A leaf
// without a preparer keys each pointer apart. The kernel asks the pairs
// that share a base one by one, then the exceptions the leaves list,
// and last each pair of classes once on representatives, weighted by
// the number of its pairs not asked before.
func (w *Workspace) EvaluateFunc(f *ir.Func, rep *Report) {
	clear(w.seen)
	w.vals = appendPointerValues(w.vals[:0], f, w.seen)
	if len(w.vals) < 2 {
		return
	}
	w.ptrs, w.idx = slices.Grow(w.ptrs[:0], len(w.vals)), w.idx[:0]
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
	for r, an := range w.plan.rows {
		w.counts[r] = rep.PerAnalysis[an.Name()]
	}
	w.classify(f)
	w.askSameBase()
	w.askExceptions()
	w.askClassPairs()
}

// baseSlot returns the slot of base v of f's pointers: its id for a
// value of f, NumValues plus its position for a global of f's module,
// and -1 for anything else.
func baseSlot(f *ir.Func, v ir.Value) int {
	if g, ok := v.(*ir.Global); ok {
		if f.Mod == nil {
			return -1
		}
		if i := f.Mod.GlobalIndex(g); i >= 0 {
			return f.NumValues() + i
		}
		return -1
	}
	if g, id := ir.ValueID(v); g == f && id < f.NumValues() {
		return id
	}
	return -1
}

// classify numbers the bases of f's pointers in order of first
// occurrence and the classes of the pointers, and groups the pointers
// by both.
func (w *Workspace) classify(f *ir.Func) {
	n, nl := len(w.ptrs), len(w.prepared)
	slots := f.NumValues()
	if f.Mod != nil {
		slots += len(f.Mod.Globals)
	}
	for len(w.baseOf) < slots {
		w.baseOf = append(w.baseOf, -1)
	}
	w.base, w.byClass = slices.Grow(w.base[:0], n), slices.Grow(w.byClass[:0], n)
	w.keys = slices.Grow(w.keys[:0], n*nl)
	bases := int32(0)
	for i := range w.ptrs {
		b := int32(-1)
		if s := baseSlot(f, w.ptrs[i].d.base); s >= 0 {
			if w.baseOf[s] < 0 {
				w.baseOf[s] = bases
				bases++
				w.touched = append(w.touched, int32(s))
			}
			b = w.baseOf[s]
		} else {
			for _, o := range w.others {
				if o.v == w.ptrs[i].d.base {
					b = o.n
					break
				}
			}
			if b < 0 {
				b = bases
				bases++
				w.others = append(w.others, otherBase{w.ptrs[i].d.base, b})
			}
		}
		w.base = append(w.base, b)
		for _, pr := range w.prepared {
			k := i
			if pr != nil {
				k = pr.Key(i)
			}
			w.keys = append(w.keys, k)
		}
		w.byClass = append(w.byClass, int32(i))
	}
	keysOf := func(i int32) []int { return w.keys[int(i)*nl : int(i+1)*nl] }
	slices.SortFunc(w.byClass, func(a, b int32) int {
		if c := slices.Compare(keysOf(a), keysOf(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	w.class = slices.Grow(w.class[:0], n)[:n]
	w.first = w.first[:0]
	for k, i := range w.byClass {
		if k == 0 || !slices.Equal(keysOf(w.byClass[k-1]), keysOf(i)) {
			w.first = append(w.first, int32(k))
		}
		w.class[i] = int32(len(w.first) - 1)
	}
	w.first = append(w.first, int32(n))
	for _, s := range w.touched {
		w.baseOf[s] = -1
	}
	w.touched, w.others = w.touched[:0], w.others[:0]
	w.byBase = append(w.byBase[:0], w.byClass...)
	slices.SortStableFunc(w.byBase, func(a, b int32) int { return cmp.Compare(w.base[a], w.base[b]) })
}

// askSameBase asks every pair of pointers that share a base.
func (w *Workspace) askSameBase() {
	w.asked = w.asked[:0]
	for rest := w.byBase; len(rest) > 0; {
		e := 1
		for e < len(rest) && w.base[rest[e]] == w.base[rest[0]] {
			e++
		}
		g := rest[:e]
		rest = rest[e:]
		for x, i := range g {
			for _, j := range g[x+1:] {
				w.tally(int(i), int(j), false, 1)
			}
		}
		// g lists its pointers by class: count its pairs per pair of
		// classes run by run.
		for x := 0; x < len(g); {
			cx, ex := w.run(g, x)
			nx := ex - x
			w.addAsked(cx, cx, nx*(nx-1)/2)
			for y := ex; y < len(g); {
				cy, ey := w.run(g, y)
				w.addAsked(cx, cy, nx*(ey-y))
				y = ey
			}
			x = ex
		}
	}
}

// run returns the class of g[x] and the end of its run in g.
func (w *Workspace) run(g []int32, x int) (int32, int) {
	c, e := w.class[g[x]], x+1
	for e < len(g) && w.class[g[e]] == c {
		e++
	}
	return c, e
}

// addException records a pair that a leaf lists; pairs sharing a base
// are asked anyway.
func (w *Workspace) addException(i, j int) {
	if w.base[i] == w.base[j] {
		return
	}
	w.exceptions = append(w.exceptions, uint64(min(i, j))<<32|uint64(max(i, j)))
}

// askExceptions asks each pair that some leaf lists once.
func (w *Workspace) askExceptions() {
	w.exceptions = w.exceptions[:0]
	for _, pr := range w.prepared {
		if pr != nil {
			pr.Exceptions(w.yield)
		}
	}
	slices.Sort(w.exceptions)
	w.exceptions = slices.Compact(w.exceptions)
	for _, e := range w.exceptions {
		i, j := int(e>>32), int(uint32(e))
		w.tally(i, j, false, 1)
		w.addAsked(w.class[i], w.class[j], 1)
	}
}

// addAsked records that pairs pointer pairs between classes a and b
// were asked one by one.
func (w *Workspace) addAsked(a, b int32, pairs int) {
	if pairs > 0 {
		w.asked = append(w.asked, classPair{uint64(min(a, b))<<32 | uint64(max(a, b)), pairs})
	}
}

// askClassPairs asks each pair of classes once for the pairs between
// them that were not asked one by one.
func (w *Workspace) askClassPairs() {
	slices.SortFunc(w.asked, func(x, y classPair) int { return cmp.Compare(x.ab, y.ab) })
	k, nc := 0, len(w.first)-1
	for a := 0; a < nc; a++ {
		na := int(w.first[a+1] - w.first[a])
		for b := a; b < nc; b++ {
			pairs := na * int(w.first[b+1]-w.first[b])
			if a == b {
				pairs = na * (na - 1) / 2
			}
			for ab := uint64(a)<<32 | uint64(b); k < len(w.asked) && w.asked[k].ab == ab; k++ {
				pairs -= w.asked[k].pairs
			}
			if pairs > 0 {
				w.tally(int(w.byClass[w.first[a]]), int(w.byClass[w.first[b]]), true, pairs)
			}
		}
	}
}

// tally counts weight queries in every row, each answered as the pair
// of ptrs[i] and ptrs[j] is: by each leaf's Cross when cross is set,
// else by its Pair, and by Alias for leaves without a preparer. A
// chain's first definitive leaf answer wins, later leaves are not
// asked, and no leaf is asked twice.
func (w *Workspace) tally(i, j int, cross bool, weight int) {
	if i > j {
		i, j = j, i
	}
	p := w.plan
	for l := range w.answers {
		w.answers[l] = unanswered
	}
	for r, leaves := range p.rowLeaves {
		res := MayAlias
		for _, l := range leaves {
			a := w.answers[l]
			if a == unanswered {
				switch pr := w.prepared[l]; {
				case pr == nil:
					a = p.leaves[l].Alias(w.ptrs[i].Loc, w.ptrs[j].Loc)
				case cross:
					a = pr.Cross(i, j)
				default:
					a = pr.Pair(i, j)
				}
				w.answers[l] = a
			}
			if a != MayAlias {
				res = a
				break
			}
		}
		c := w.counts[r]
		c.Queries += weight
		switch res {
		case NoAlias:
			c.No += weight
		case MustAlias:
			c.Must += weight
		default:
			c.May += weight
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
