// Package sanitize is a static memory-safety checker built as a
// diagnostics client of the pipeline's prover stack. It walks every
// memory access in a module — loads, stores, geps, calls — and
// classifies each against three check kinds (out-of-bounds access,
// null-pointer dereference, read of uninitialized memory) with one of
// three verdicts:
//
//   - Safe: the access provably never traps with that kind, on any
//     execution reaching it.
//   - Unsafe: the access provably traps with that kind on every
//     execution that reaches it.
//   - Unknown: neither could be proved.
//
// Bounds verdicts come from a layered prover stack, cheapest first:
// interval ranges (internal/rangeanal), the ABCD relational graph
// (internal/abcd), the Pentagon domain (internal/pentagon), and
// finally the paper's less-than solver (internal/core). Each
// diagnostic records which layer decided it, so the experiment
// harness can attribute prove-rates per layer — in particular, which
// accesses only the LT analysis can discharge.
//
// The verdict lattice degrades soundly: a contained panic or an
// exhausted budget turns the affected checks into Unknown (layers
// "contained" / "budget"), never into Safe. The module walk mirrors
// the hardened pipeline's worker discipline — per-function slots
// filled by a bounded pool, merged in module function order — so the
// report is byte-identical at any worker count.
package sanitize

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/rangeanal"
)

// Kind is a memory-safety check class.
type Kind int

const (
	// KindBounds checks that the access offset stays inside its
	// object's allocated cells.
	KindBounds Kind = iota
	// KindNull checks that the dereferenced pointer is a real object
	// pointer, not null (or a stray integer read from memory).
	KindNull
	// KindUninit checks that no operand of the access is an undefined
	// SSA value (a read of a variable never assigned on this path).
	KindUninit
)

func (k Kind) String() string {
	switch k {
	case KindBounds:
		return "bounds"
	case KindNull:
		return "null"
	case KindUninit:
		return "uninit"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindOfTrap maps an interpreter trap code (interp.Trap.Code) to the
// check kind that claims to predict it. The sanitizer's soundness
// contract is phrased through this map: an observed trap with code c
// at instruction i refutes a Safe verdict at (i, KindOfTrap(c)).
func KindOfTrap(code string) (Kind, bool) {
	switch code {
	case interp.TrapOOB:
		return KindBounds, true
	case interp.TrapNull:
		return KindNull, true
	case interp.TrapUndef:
		return KindUninit, true
	}
	return 0, false
}

// Verdict is the outcome of one check on one access.
type Verdict int

const (
	// Unknown claims nothing; it is the sound default and the
	// degradation target for budget exhaustion and contained panics.
	Unknown Verdict = iota
	// Safe claims the access never traps with the checked kind.
	Safe
	// Unsafe claims the access traps with the checked kind on every
	// execution that reaches it.
	Unsafe
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "safe"
	case Unsafe:
		return "unsafe"
	}
	return "unknown"
}

// Prover layer names recorded in Diagnostic.Layer, ordered by cost.
// LayerBudget and LayerContained mark degraded Unknown verdicts;
// LayerNone marks an honest "no layer could decide".
const (
	LayerNone      = ""
	LayerInterval  = "interval"
	LayerABCD      = "abcd"
	LayerPentagon  = "pentagon"
	LayerLT        = "lt"
	LayerNullness  = "nullness"
	LayerDirect    = "direct"
	LayerBudget    = "budget"
	LayerContained = "contained"
)

// Diagnostic is one (access, kind) classification.
type Diagnostic struct {
	Fn *ir.Func
	In *ir.Instr
	// Kind is the check class this diagnostic answers.
	Kind Kind
	// Verdict is the classification.
	Verdict Verdict
	// Layer names the prover that decided the verdict (Layer*
	// constants). For Unknown it is empty unless the verdict is a
	// degradation ("budget", "contained").
	Layer string
}

// Line returns the mini-C source line of the access, 0 if unknown.
func (d Diagnostic) Line() int { return int(d.In.Line) }

// FuncFailure records a contained panic during one function's checks,
// mirroring core.FuncFailure.
type FuncFailure struct {
	Fn    string
	Cause string
	Value string
	Stack string
}

// Options mirrors the hardened-pipeline knobs of core.Options.
type Options struct {
	// Budget bounds each function's checks; an exhausted function
	// finishes with Unknown("budget") verdicts for the remaining
	// checks and is recorded in Report.Degraded.
	Budget budget.Spec
	// BudgetFor, when non-nil, overrides Budget per function.
	BudgetFor func(*ir.Func) budget.Spec
	// Recover converts a panic during one function's checks into a
	// FuncFailure plus Unknown("contained") verdicts instead of
	// crashing the run.
	Recover bool
	// Skip lists functions excluded entirely (quarantined IR); they
	// produce no diagnostics and are recorded as degraded.
	Skip map[*ir.Func]bool
	// OnFunc, when non-nil, runs at the start of each function's
	// checks inside the protected region (fault-injection hook).
	OnFunc func(*ir.Func)
	// Workers fans the per-function checks across a bounded pool; 0
	// or 1 runs serially. The merged report is identical at any value.
	Workers int
}

func (o Options) budgetFor(f *ir.Func) budget.Spec {
	if o.BudgetFor != nil {
		return o.BudgetFor(f)
	}
	return o.Budget
}

// Report is the module-wide result.
type Report struct {
	// Diags holds every (access, kind) classification, in module
	// function order, block order, instruction order, kind order.
	Diags []Diagnostic
	// Failures are contained per-function panics, in function order.
	Failures []FuncFailure
	// Degraded maps functions whose checks did not complete normally
	// to the cause ("skipped", "budget", "panic").
	Degraded map[*ir.Func]string
}

// Find returns the diagnostic for (in, k), if the instruction was
// walked as an access with that kind.
func (r *Report) Find(in *ir.Instr, k Kind) (Diagnostic, bool) {
	for _, d := range r.Diags {
		if d.In == in && d.Kind == k {
			return d, true
		}
	}
	return Diagnostic{}, false
}

// Analyze classifies every memory access of m. ranges and lt may be
// nil (or the analyses' Empty() results) — the corresponding prover
// layers then simply never fire.
func Analyze(m *ir.Module, ranges *rangeanal.Result, lt *core.Result, opt Options) *Report {
	return AnalyzeCtx(context.Background(), m, ranges, lt, opt)
}

// slot is one function's outcome, filled by a worker and merged in
// module function order by the calling goroutine.
type slot struct {
	diags    []Diagnostic
	fail     *FuncFailure
	degraded string
	// panicked re-raises on the calling goroutine when Recover is
	// unset, preserving the serial contract deterministically.
	panicked any
	// escaped carries a panic that got past checkFunc's own
	// containment on a worker goroutine; it always re-raises on the
	// calling goroutine, Recover or not, because the recovery
	// machinery itself can no longer be trusted.
	escaped any
}

// AnalyzeCtx is Analyze under a context: cancellation is observed by
// the per-function budgets.
func AnalyzeCtx(ctx context.Context, m *ir.Module, ranges *rangeanal.Result, lt *core.Result, opt Options) *Report {
	if ranges == nil {
		ranges = rangeanal.Empty()
	}
	if lt == nil {
		lt = core.Empty()
	}
	slots := make([]slot, len(m.Funcs))
	run := func(i int) {
		f := m.Funcs[i]
		if opt.Skip[f] {
			slots[i].degraded = "skipped"
			return
		}
		slots[i] = checkFunc(ctx, f, ranges, lt, opt)
	}
	if workers := min(opt.Workers, len(m.Funcs)); workers <= 1 {
		for i := range m.Funcs {
			run(i)
		}
	} else {
		ch := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ch {
					func(i int) {
						// Containment of last resort: checkFunc
						// converts recover-mode panics into slot
						// failures one level down, but a panic in
						// that machinery itself would otherwise kill
						// the process from a worker goroutine. The
						// slot re-raises on the calling goroutine.
						defer func() {
							if r := recover(); r != nil {
								slots[i].escaped = r
							}
						}()
						run(i)
					}(i)
				}
			}()
		}
		for i := range m.Funcs {
			ch <- i
		}
		close(ch)
		wg.Wait()
	}

	rep := &Report{Degraded: map[*ir.Func]string{}}
	for i, f := range m.Funcs {
		s := &slots[i]
		if s.escaped != nil {
			panic(s.escaped)
		}
		if s.panicked != nil && !opt.Recover {
			panic(s.panicked)
		}
		rep.Diags = append(rep.Diags, s.diags...)
		if s.fail != nil {
			rep.Failures = append(rep.Failures, *s.fail)
		}
		if s.degraded != "" {
			rep.Degraded[f] = s.degraded
		}
	}
	return rep
}

// checkFunc runs one function's checks inside a containment region.
// A panic degrades every access to Unknown("contained"); budget
// exhaustion degrades the remaining accesses to Unknown("budget").
func checkFunc(ctx context.Context, f *ir.Func, ranges *rangeanal.Result, lt *core.Result, opt Options) (s slot) {
	bgt := opt.budgetFor(f).Start(ctx)
	panicked := protect(func() {
		if opt.OnFunc != nil {
			opt.OnFunc(f)
		}
		s.diags = classify(f, ranges, lt, bgt)
		if err := bgt.Err(); err != nil {
			if budget.Canceled(err) {
				s.degraded = "canceled"
			} else {
				s.degraded = "budget"
			}
		}
	})
	if panicked == nil {
		return s
	}
	s.panicked = panicked
	s.fail = &FuncFailure{
		Fn: f.FName, Cause: "panic",
		Value: fmt.Sprint(panicked), Stack: string(debug.Stack()),
	}
	s.degraded = "panic"
	s.diags = nil
	// Enumeration is a plain read-only walk; if even that panics the
	// IR is unwalkable and the function contributes no diagnostics —
	// which still claims nothing, the sound direction.
	protect(func() {
		var diags []Diagnostic
		walkAccesses(f, func(in *ir.Instr, k Kind) {
			diags = append(diags, Diagnostic{
				Fn: f, In: in, Kind: k, Verdict: Unknown, Layer: LayerContained,
			})
		})
		s.diags = diags
	})
	return s
}

// protect runs body and returns the recovered panic value, nil if none.
func protect(body func()) (panicked any) {
	defer func() { panicked = recover() }()
	body()
	return nil
}

// kindsOf returns the check kinds that apply to in, in fixed order.
// Loads and stores face all three hazards. A gep can trap on a null
// (or non-pointer) base and on undef operands, but an out-of-range
// gep result does not trap until dereferenced, so gep carries no
// bounds kind. Calls evaluate their arguments, so they face the
// undef hazard only.
func kindsOf(in *ir.Instr) []Kind {
	switch in.Op {
	case ir.OpLoad, ir.OpStore:
		return []Kind{KindBounds, KindNull, KindUninit}
	case ir.OpGEP:
		return []Kind{KindNull, KindUninit}
	case ir.OpCall:
		return []Kind{KindUninit}
	}
	return nil
}

// walkAccesses visits every (access, kind) pair of f in deterministic
// order: block order, instruction order, kind order.
func walkAccesses(f *ir.Func, visit func(*ir.Instr, Kind)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, k := range kindsOf(in) {
				visit(in, k)
			}
		}
	}
}

// classify produces the function's diagnostics. The budget is ticked
// once per check and inside the prover's candidate loops; once
// exhausted, every remaining check is Unknown("budget").
func classify(f *ir.Func, ranges *rangeanal.Result, lt *core.Result, bgt *budget.B) []Diagnostic {
	pv := newProver(f, ranges, lt, bgt)
	var out []Diagnostic
	exhausted := false
	walkAccesses(f, func(in *ir.Instr, k Kind) {
		d := Diagnostic{Fn: f, In: in, Kind: k}
		if exhausted || bgt.Tick() != nil {
			exhausted = true
			d.Layer = LayerBudget
			out = append(out, d)
			return
		}
		d.Verdict, d.Layer = pv.check(in, k)
		if bgt.Err() != nil {
			// The budget ran out mid-check: a verdict reached before
			// exhaustion stands (the proof is complete), but an
			// Unknown may just be a truncated search.
			exhausted = true
			if d.Verdict == Unknown {
				d.Layer = LayerBudget
			}
		}
		out = append(out, d)
	})
	return out
}
