package ir

import "math"

// Builder constructs instructions with an insertion point, in the style
// of LLVM's IRBuilder. Every emitted instruction gets a fresh name
// unless one is provided with Named.
type Builder struct {
	fn   *Func
	blk  *Block
	name string // pending name for the next instruction
	line int32  // source line stamped on emitted instructions (0 = none)
}

// NewBuilder returns a builder for fn with no insertion point.
func NewBuilder(fn *Func) *Builder { return &Builder{fn: fn} }

// Func returns the function being built.
func (bld *Builder) Func() *Func { return bld.fn }

// Block returns the current insertion block.
func (bld *Builder) Block() *Block { return bld.blk }

// SetBlock moves the insertion point to the end of b.
func (bld *Builder) SetBlock(b *Block) { bld.blk = b }

// Named sets the result name of the next emitted instruction.
func (bld *Builder) Named(name string) *Builder {
	bld.name = name
	return bld
}

// SetLine sets the source line stamped on subsequently emitted
// instructions. Unlike Named it is sticky: it stays in effect until
// the next SetLine. Pass 0 to stop stamping. A line that does not fit
// Instr.Line's int32 is stamped as 0, unknown.
func (bld *Builder) SetLine(n int) {
	if n < 0 || n > math.MaxInt32 {
		n = 0
	}
	bld.line = int32(n)
}

func (bld *Builder) emit(in *Instr) *Instr {
	if bld.blk == nil {
		panic("ir: Builder has no insertion block")
	}
	if in.HasResult() {
		if bld.name != "" {
			in.name = bld.fn.UniqueName(bld.name)
		} else {
			in.name = bld.fn.FreshName("t")
		}
	}
	bld.name = ""
	if in.Line == 0 {
		in.Line = bld.line
	}
	bld.blk.Append(in)
	return in
}

// Alloca emits a stack allocation of n elements of elem.
func (bld *Builder) Alloca(elem Type, n int64) *Instr {
	return bld.emit(NewAlloca(elem, n))
}

// Malloc emits a heap allocation of size bytes, typed as a pointer to
// elem.
func (bld *Builder) Malloc(elem Type, size Value) *Instr {
	return bld.emit(&Instr{
		Op: OpMalloc, Typ: Ptr(elem), Args: []Value{size},
	})
}

// Load emits a load through ptr.
func (bld *Builder) Load(ptr Value) *Instr {
	pt, ok := ptr.Type().(*PtrType)
	if !ok {
		panic("ir: Load from non-pointer " + ptr.Ref())
	}
	return bld.emit(&Instr{Op: OpLoad, Typ: pt.Elem, Args: []Value{ptr}})
}

// Store emits a store of val through ptr.
func (bld *Builder) Store(val, ptr Value) *Instr {
	if !IsPtr(ptr.Type()) {
		panic("ir: Store to non-pointer " + ptr.Ref())
	}
	return bld.emit(&Instr{Op: OpStore, Typ: Void, Args: []Value{val, ptr}})
}

// Bin emits a binary arithmetic instruction.
func (bld *Builder) Bin(op Op, a, b Value) *Instr {
	if !op.IsBinOp() {
		panic("ir: Bin with non-binary op " + op.String())
	}
	return bld.emit(&Instr{Op: op, Typ: a.Type(), Args: []Value{a, b}})
}

// Add emits a + b.
func (bld *Builder) Add(a, b Value) *Instr { return bld.Bin(OpAdd, a, b) }

// Sub emits a - b.
func (bld *Builder) Sub(a, b Value) *Instr { return bld.Bin(OpSub, a, b) }

// Mul emits a * b.
func (bld *Builder) Mul(a, b Value) *Instr { return bld.Bin(OpMul, a, b) }

// ICmp emits an integer comparison.
func (bld *Builder) ICmp(pred CmpPred, a, b Value) *Instr {
	return bld.emit(&Instr{Op: OpICmp, Typ: I1, Pred: pred, Args: []Value{a, b}})
}

// GEP emits pointer arithmetic: base + idx elements. A base pointing
// to an array decays: the result points to the array's element type.
func (bld *Builder) GEP(base, idx Value) *Instr {
	rt := GEPResultType(base.Type())
	if rt == nil {
		panic("ir: GEP on non-pointer " + base.Ref())
	}
	return bld.emit(&Instr{Op: OpGEP, Typ: rt, Args: []Value{base, idx}})
}

// Phi emits an empty phi of type t; incoming edges are added with
// AddIncoming. Phis are placed at the block head.
func (bld *Builder) Phi(t Type) *Instr {
	in := &Instr{Op: OpPhi, Typ: t, Line: bld.line}
	if bld.name != "" {
		in.name = bld.fn.UniqueName(bld.name)
		bld.name = ""
	} else {
		in.name = bld.fn.FreshName("t")
	}
	bld.blk.Insert(bld.blk.NumPhis(), in)
	return in
}

// AddIncoming appends an incoming (value, predecessor) pair to phi.
func AddIncoming(phi *Instr, v Value, pred *Block) {
	if phi.Op != OpPhi {
		panic("ir: AddIncoming on non-phi")
	}
	phi.Args = append(phi.Args, v)
	ext := phi.extOrNew()
	ext.blocks = append(ext.blocks, pred)
}

// Call emits a call to a function defined in this module.
func (bld *Builder) Call(callee *Func, args ...Value) *Instr {
	return bld.emit(&Instr{
		Op: OpCall, Typ: callee.RetTyp, Args: args,
		ext: &payload{calleeName: callee.FName, callee: callee},
	})
}

// CallExt emits a call to an external function with the given result
// type.
func (bld *Builder) CallExt(name string, ret Type, args ...Value) *Instr {
	return bld.emit(&Instr{Op: OpCall, Typ: ret, Args: args, ext: &payload{calleeName: name}})
}

// Br emits a conditional branch.
func (bld *Builder) Br(cond Value, then, els *Block) *Instr {
	return bld.emit(&Instr{
		Op: OpBr, Typ: Void, Args: []Value{cond}, Succs: []*Block{then, els},
	})
}

// Jmp emits an unconditional jump.
func (bld *Builder) Jmp(target *Block) *Instr {
	return bld.emit(&Instr{Op: OpJmp, Typ: Void, Succs: []*Block{target}})
}

// Ret emits a return. v may be nil for void functions.
func (bld *Builder) Ret(v Value) *Instr {
	in := &Instr{Op: OpRet, Typ: Void}
	if v != nil {
		in.Args = []Value{v}
	}
	return bld.emit(in)
}
