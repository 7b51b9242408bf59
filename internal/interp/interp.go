// Package interp is a reference interpreter for the IR of internal/ir.
// It exists to validate the toolchain: the mini-C frontend is checked
// by executing compiled programs, and the e-SSA transformation is
// checked by differential testing (a transformed program must compute
// exactly what the original computed).
//
// The memory model is object-based: every allocation site instance
// (alloca execution, malloc execution, global) yields a fresh object of
// element-sized cells, and pointers are (object, element offset) pairs.
// Out-of-bounds and wild accesses are runtime errors rather than
// undefined behaviour, which makes the interpreter a strict oracle.
package interp

import (
	"fmt"

	"repro/internal/ir"
)

// MemObj is a run-time memory object: a global, a stack slot, or a
// heap block.
type MemObj struct {
	// Name describes the object for diagnostics.
	Name string
	// Cells holds the object's elements.
	Cells []Val
}

// Val is a runtime value: an integer or a pointer into an object.
type Val struct {
	// I is the integer payload when Obj is nil.
	I int64
	// Obj is the pointed-to object for pointer values.
	Obj *MemObj
	// Off is the element offset within Obj.
	Off int64
}

// IsPtr reports whether the value is a pointer.
func (v Val) IsPtr() bool { return v.Obj != nil }

func (v Val) String() string {
	if v.IsPtr() {
		return fmt.Sprintf("&%s[%d]", v.Obj.Name, v.Off)
	}
	return fmt.Sprintf("%d", v.I)
}

// IntVal returns an integer value.
func IntVal(i int64) Val { return Val{I: i} }

// Options configures execution limits.
type Options struct {
	// MaxSteps bounds the number of executed instructions; 0 means
	// the default of 10 million.
	MaxSteps int
	// MaxDepth bounds the call stack; 0 means the default of 1000.
	MaxDepth int
	// External handles calls to functions not defined in the module.
	// nil rejects them (except free, which is a no-op).
	External func(name string, args []Val) (Val, error)
	// TraceBlock, if set, is invoked at every basic-block entry with
	// the executing function, the block, and an accessor for the
	// current value environment (defined values only). Dynamic
	// soundness checkers (internal/soundcheck) hang off this hook.
	TraceBlock func(fn *ir.Func, blk *ir.Block, get func(ir.Value) (Val, bool))
}

// Machine executes functions of one module.
type Machine struct {
	mod     *ir.Module
	opt     Options
	globals map[*ir.Global]*MemObj
	steps   int
}

// NewMachine prepares an execution environment for m: one zeroed
// memory object per global.
func NewMachine(m *ir.Module, opt Options) *Machine {
	if opt.MaxSteps == 0 {
		opt.MaxSteps = 10_000_000
	}
	if opt.MaxDepth == 0 {
		opt.MaxDepth = 1000
	}
	mach := &Machine{mod: m, opt: opt, globals: map[*ir.Global]*MemObj{}}
	for _, g := range m.Globals {
		n := int64(1)
		if at, ok := g.Elem.(*ir.ArrayType); ok {
			n = at.Len
		}
		mach.globals[g] = &MemObj{Name: "@" + g.GName, Cells: make([]Val, n)}
	}
	return mach
}

// Global returns the memory object backing g, for seeding inputs and
// inspecting outputs.
func (mach *Machine) Global(name string) *MemObj {
	g := mach.mod.GlobalByName(name)
	if g == nil {
		return nil
	}
	return mach.globals[g]
}

// Steps returns the number of instructions executed so far.
func (mach *Machine) Steps() int { return mach.steps }

// Run executes the named function with the given arguments.
func (mach *Machine) Run(fname string, args ...Val) (Val, error) {
	f := mach.mod.FuncByName(fname)
	if f == nil {
		return Val{}, fmt.Errorf("interp: no function @%s", fname)
	}
	return mach.call(f, args, 0)
}

type runtimeError struct {
	msg string
	// code classifies the trap for static-checker differentials:
	// "oob", "null", "undef", or "" for everything else.
	code string
}

func (e *runtimeError) Error() string { return "interp: " + e.msg }

func (mach *Machine) errf(format string, args ...any) error {
	return &runtimeError{msg: fmt.Sprintf(format, args...)}
}

// errc is errf with a trap classification code attached.
func (mach *Machine) errc(code, format string, args ...any) error {
	return &runtimeError{msg: fmt.Sprintf(format, args...), code: code}
}

// Trap codes attached to classified runtime errors.
const (
	TrapOOB   = "oob"   // load/store outside the accessed object
	TrapNull  = "null"  // load/store/gep through a non-pointer (null)
	TrapUndef = "undef" // use of an undef (uninitialized) SSA value
)

// Trap wraps a runtime error with the function and instruction that
// raised it, so differential checkers can map a dynamic failure back
// to the static program point. Code is one of the Trap* constants, or
// "" when the error has no memory-safety classification (division by
// zero, step limits, ...).
type Trap struct {
	Fn   *ir.Func
	In   *ir.Instr
	Code string
	err  error
}

func (t *Trap) Error() string {
	return fmt.Sprintf("%v [@%s %s]", t.err, t.Fn.FName, t.In)
}

func (t *Trap) Unwrap() error { return t.err }

// TrapOf extracts the innermost Trap from err, or nil if execution
// failed for a reason that never reached an attributable instruction.
func TrapOf(err error) *Trap {
	for err != nil {
		if t, ok := err.(*Trap); ok {
			return t
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return nil
		}
		err = u.Unwrap()
	}
	return nil
}

// trapAt attributes err to (f, in) unless an inner frame already did.
func trapAt(f *ir.Func, in *ir.Instr, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*Trap); ok {
		return err
	}
	code := ""
	if re, ok := err.(*runtimeError); ok {
		code = re.code
	}
	return &Trap{Fn: f, In: in, Code: code, err: err}
}

func (mach *Machine) call(f *ir.Func, args []Val, depth int) (Val, error) {
	if depth > mach.opt.MaxDepth {
		return Val{}, mach.errf("call depth exceeded in @%s", f.FName)
	}
	if len(args) != len(f.Params) {
		return Val{}, mach.errf("@%s called with %d args, wants %d",
			f.FName, len(args), len(f.Params))
	}
	env := make(map[ir.Value]Val)
	for i, p := range f.Params {
		env[p] = args[i]
	}
	blk := f.Entry()
	var prev *ir.Block
	for {
		// Phis evaluate in parallel from the edge just traversed.
		phis := blk.Phis()
		if len(phis) > 0 {
			if prev == nil {
				return Val{}, mach.errf("phi in entry block %s", blk.Name())
			}
			vals := make([]Val, len(phis))
			for i, phi := range phis {
				in := phi.Incoming(prev)
				if in == nil {
					return Val{}, mach.errf("phi %s has no incoming from %s",
						phi.Ref(), prev.Name())
				}
				v, err := mach.eval(env, in)
				if err != nil {
					return Val{}, trapAt(f, phi, err)
				}
				vals[i] = v
			}
			for i, phi := range phis {
				env[phi] = vals[i]
			}
		}
		if mach.opt.TraceBlock != nil {
			// The hook fires after the block's phis have taken their
			// values for this entry, so the environment is consistent
			// at the block's first non-phi program point.
			mach.opt.TraceBlock(f, blk, func(v ir.Value) (Val, bool) {
				val, ok := env[v]
				return val, ok
			})
		}
		for _, in := range blk.Instrs[len(phis):] {
			mach.steps++
			if mach.steps > mach.opt.MaxSteps {
				return Val{}, mach.errf("step limit exceeded in @%s", f.FName)
			}
			switch in.Op {
			case ir.OpRet:
				if len(in.Args) == 0 {
					return Val{}, nil
				}
				v, err := mach.eval(env, in.Args[0])
				return v, trapAt(f, in, err)
			case ir.OpJmp:
				prev, blk = blk, in.Succs[0]
			case ir.OpBr:
				c, err := mach.eval(env, in.Args[0])
				if err != nil {
					return Val{}, trapAt(f, in, err)
				}
				if c.IsPtr() {
					return Val{}, mach.errf("branch on pointer")
				}
				if c.I != 0 {
					prev, blk = blk, in.Succs[0]
				} else {
					prev, blk = blk, in.Succs[1]
				}
			default:
				v, err := mach.exec(env, in, depth)
				if err != nil {
					return Val{}, trapAt(f, in, err)
				}
				if in.HasResult() {
					env[in] = v
				}
				continue
			}
			break // control transferred
		}
	}
}

func (mach *Machine) eval(env map[ir.Value]Val, v ir.Value) (Val, error) {
	switch v := v.(type) {
	case *ir.Const:
		if ir.IsPtr(v.Typ) {
			if v.Val == 0 {
				return Val{}, nil // null: integer 0, no object
			}
			return Val{}, mach.errf("non-null pointer constant %d", v.Val)
		}
		return IntVal(v.Val), nil
	case *ir.Global:
		return Val{Obj: mach.globals[v]}, nil
	case *ir.Undef:
		return Val{}, mach.errc(TrapUndef, "use of undef (uninitialized variable)")
	default:
		val, ok := env[v]
		if !ok {
			return Val{}, mach.errf("use of %s before definition", v.Ref())
		}
		return val, nil
	}
}

func (mach *Machine) exec(env map[ir.Value]Val, in *ir.Instr, depth int) (Val, error) {
	arg := func(i int) (Val, error) { return mach.eval(env, in.Args[i]) }
	switch in.Op {
	case ir.OpAlloca:
		return Val{Obj: &MemObj{
			Name:  "%" + in.Name(),
			Cells: make([]Val, in.NumElems()),
		}}, nil
	case ir.OpMalloc:
		sz, err := arg(0)
		if err != nil {
			return Val{}, err
		}
		if sz.IsPtr() {
			return Val{}, mach.errf("malloc with pointer size")
		}
		elem := ir.Elem(in.Typ)
		es := elem.SizeBytes()
		if es == 0 {
			es = 8
		}
		n := sz.I / es
		if sz.I < 0 || n > 1<<28 {
			return Val{}, mach.errf("malloc of unreasonable size %d", sz.I)
		}
		if n == 0 {
			n = 1
		}
		return Val{Obj: &MemObj{
			Name:  "%" + in.Name(),
			Cells: make([]Val, n),
		}}, nil
	case ir.OpLoad:
		p, err := arg(0)
		if err != nil {
			return Val{}, err
		}
		if !p.IsPtr() {
			return Val{}, mach.errc(TrapNull, "load through non-pointer %s", p)
		}
		if p.Off < 0 || p.Off >= int64(len(p.Obj.Cells)) {
			return Val{}, mach.errc(TrapOOB, "load out of bounds: %s (size %d)", p, len(p.Obj.Cells))
		}
		return p.Obj.Cells[p.Off], nil
	case ir.OpStore:
		v, err := arg(0)
		if err != nil {
			return Val{}, err
		}
		p, err := arg(1)
		if err != nil {
			return Val{}, err
		}
		if !p.IsPtr() {
			return Val{}, mach.errc(TrapNull, "store through non-pointer %s", p)
		}
		if p.Off < 0 || p.Off >= int64(len(p.Obj.Cells)) {
			return Val{}, mach.errc(TrapOOB, "store out of bounds: %s (size %d)", p, len(p.Obj.Cells))
		}
		p.Obj.Cells[p.Off] = v
		return Val{}, nil
	case ir.OpGEP:
		base, err := arg(0)
		if err != nil {
			return Val{}, err
		}
		idx, err := arg(1)
		if err != nil {
			return Val{}, err
		}
		if idx.IsPtr() {
			return Val{}, mach.errf("gep with pointer index")
		}
		if !base.IsPtr() {
			return Val{}, mach.errc(TrapNull, "gep on non-pointer %s", base)
		}
		return Val{Obj: base.Obj, Off: base.Off + idx.I}, nil
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
		a, err := arg(0)
		if err != nil {
			return Val{}, err
		}
		b, err := arg(1)
		if err != nil {
			return Val{}, err
		}
		if a.IsPtr() || b.IsPtr() {
			return Val{}, mach.errf("arithmetic on pointer")
		}
		return mach.binop(in.Op, a.I, b.I)
	case ir.OpICmp:
		a, err := arg(0)
		if err != nil {
			return Val{}, err
		}
		b, err := arg(1)
		if err != nil {
			return Val{}, err
		}
		res, err := mach.compare(in.Pred, a, b)
		if err != nil {
			return Val{}, err
		}
		if res {
			return IntVal(1), nil
		}
		return IntVal(0), nil
	case ir.OpSigma, ir.OpCopy:
		return arg(0)
	case ir.OpCall:
		args := make([]Val, len(in.Args))
		for i := range in.Args {
			v, err := arg(i)
			if err != nil {
				return Val{}, err
			}
			args[i] = v
		}
		if callee := in.Callee(); callee != nil {
			return mach.call(callee, args, depth+1)
		}
		if in.CalleeName() == "free" {
			return Val{}, nil
		}
		if mach.opt.External != nil {
			return mach.opt.External(in.CalleeName(), args)
		}
		return Val{}, mach.errf("call to undefined external @%s", in.CalleeName())
	}
	return Val{}, mach.errf("cannot execute %s", in)
}

func (mach *Machine) binop(op ir.Op, a, b int64) (Val, error) {
	switch op {
	case ir.OpAdd:
		return IntVal(a + b), nil
	case ir.OpSub:
		return IntVal(a - b), nil
	case ir.OpMul:
		return IntVal(a * b), nil
	case ir.OpDiv:
		if b == 0 {
			return Val{}, mach.errf("division by zero")
		}
		return IntVal(a / b), nil
	case ir.OpRem:
		if b == 0 {
			return Val{}, mach.errf("remainder by zero")
		}
		return IntVal(a % b), nil
	case ir.OpAnd:
		return IntVal(a & b), nil
	case ir.OpOr:
		return IntVal(a | b), nil
	case ir.OpXor:
		return IntVal(a ^ b), nil
	case ir.OpShl:
		if b < 0 || b > 63 {
			return Val{}, mach.errf("shift amount %d out of range", b)
		}
		return IntVal(a << uint(b)), nil
	case ir.OpShr:
		if b < 0 || b > 63 {
			return Val{}, mach.errf("shift amount %d out of range", b)
		}
		return IntVal(a >> uint(b)), nil
	}
	return Val{}, mach.errf("bad binop")
}

func (mach *Machine) compare(pred ir.CmpPred, a, b Val) (bool, error) {
	if a.IsPtr() != b.IsPtr() {
		// Pointer compared against null (integer 0): only (in)equality
		// is meaningful.
		switch pred {
		case ir.CmpEQ:
			return false, nil
		case ir.CmpNE:
			return true, nil
		}
		return false, mach.errf("ordered comparison of pointer and integer")
	}
	if a.IsPtr() {
		if a.Obj != b.Obj {
			switch pred {
			case ir.CmpEQ:
				return false, nil
			case ir.CmpNE:
				return true, nil
			}
			return false, mach.errf("ordered comparison of pointers into different objects")
		}
		return pred.Eval(a.Off, b.Off), nil
	}
	return pred.Eval(a.I, b.I), nil
}

// NewArray allocates a standalone object of n cells for seeding
// function arguments in tests.
func NewArray(name string, n int) *MemObj {
	return &MemObj{Name: name, Cells: make([]Val, n)}
}

// PtrTo returns a pointer value to cell i of obj.
func PtrTo(obj *MemObj, i int64) Val { return Val{Obj: obj, Off: i} }
