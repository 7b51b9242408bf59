package ir

import "fmt"

// Op identifies the operation an instruction performs.
type Op uint8

// The instruction set. OpSigma and OpCopy are introduced by the e-SSA
// transformation (internal/essa) and never produced by the frontend.
const (
	// OpAlloca allocates NumElems() elements of AllocTyp() on the
	// stack and yields a pointer to the first. Each static alloca is an
	// allocation site for alias analysis.
	OpAlloca Op = iota
	// OpMalloc allocates Args[0] bytes on the heap and yields an
	// untyped-but-cast pointer (result type records the cast). Each
	// static malloc is an allocation site.
	OpMalloc
	// OpLoad reads a value of the result type through pointer Args[0].
	OpLoad
	// OpStore writes Args[0] through pointer Args[1]. No result.
	OpStore
	// OpAdd .. OpShr are binary integer arithmetic on Args[0], Args[1].
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	// OpICmp compares Args[0] Pred Args[1] and yields an i1.
	OpICmp
	// OpGEP computes Args[0] + Args[1]*sizeof(elem): pointer arithmetic
	// in element units, like a one-index LLVM getelementptr. The result
	// type equals the base pointer type.
	OpGEP
	// OpPhi selects among Args[i] according to the predecessor block
	// PhiBlocks()[i] control came from.
	OpPhi
	// OpSigma is an e-SSA live-range split: a copy of Args[0] placed at
	// the head of a branch target, carrying the branch condition that
	// is known to hold there (Cmp(), OnTrue).
	OpSigma
	// OpCopy is an e-SSA live-range split at a subtraction: a parallel
	// copy of the subtrahend's left operand (rule in Figure 5b of the
	// paper). SubUser() is the subtraction that triggered it.
	OpCopy
	// OpCall invokes Callee() (or an external function named
	// CalleeName()) with Args.
	OpCall
	// OpBr branches on Args[0] to Succs[0] (true) or Succs[1] (false).
	OpBr
	// OpJmp jumps unconditionally to Succs[0].
	OpJmp
	// OpRet returns Args[0], or nothing if Args is empty.
	OpRet
)

var opNames = [...]string{
	OpAlloca: "alloca", OpMalloc: "malloc", OpLoad: "load",
	OpStore: "store", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDiv: "div", OpRem: "rem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpICmp: "icmp", OpGEP: "gep",
	OpPhi: "phi", OpSigma: "sigma", OpCopy: "copy", OpCall: "call",
	OpBr: "br", OpJmp: "jmp", OpRet: "ret",
}

func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// IsBinOp reports whether op is a binary arithmetic operation.
func (op Op) IsBinOp() bool { return op >= OpAdd && op <= OpShr }

// IsTerminator reports whether op ends a basic block.
func (op Op) IsTerminator() bool {
	return op == OpBr || op == OpJmp || op == OpRet
}

// CmpPred is the predicate of an OpICmp instruction. Comparisons are
// signed; the core language of the paper only needs strict and
// non-strict orderings plus (in)equality.
type CmpPred uint8

// Comparison predicates.
const (
	CmpEQ CmpPred = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var predNames = [...]string{
	CmpEQ: "eq", CmpNE: "ne", CmpLT: "lt", CmpLE: "le",
	CmpGT: "gt", CmpGE: "ge",
}

func (p CmpPred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return fmt.Sprintf("pred(%d)", int(p))
}

// Negate returns the predicate that holds when p does not.
func (p CmpPred) Negate() CmpPred {
	switch p {
	case CmpEQ:
		return CmpNE
	case CmpNE:
		return CmpEQ
	case CmpLT:
		return CmpGE
	case CmpLE:
		return CmpGT
	case CmpGT:
		return CmpLE
	case CmpGE:
		return CmpLT
	}
	return p
}

// Swap returns the predicate with its operands exchanged, i.e. the q
// such that (a p b) == (b q a).
func (p CmpPred) Swap() CmpPred {
	switch p {
	case CmpLT:
		return CmpGT
	case CmpLE:
		return CmpGE
	case CmpGT:
		return CmpLT
	case CmpGE:
		return CmpLE
	}
	return p
}

// Eval applies the predicate to concrete values.
func (p CmpPred) Eval(a, b int64) bool {
	switch p {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}

// Instr is a single IR instruction. One struct represents every opcode;
// the operand slice Args is interpreted per Op. What five opcodes need
// beyond operands, a result type and successors sits behind one
// payload pointer, which every other instruction leaves nil: see
// payload. Instructions that produce a value implement Value.
//
// The layout is deliberate. The four one-byte fields and Line share
// the first word, and the struct with its 4-byte value id is 112
// bytes, one Go size class (DESIGN.md, "The IR layout"; TestInstrSize
// pins it).
type Instr struct {
	Op Op
	// Pred is the comparison predicate (OpICmp only).
	Pred CmpPred
	// OnTrue reports whether the sigma sits on the true edge of its
	// comparison (OpSigma only).
	OnTrue bool
	// CmpSide is 0 when the sigma refines its comparison's left
	// operand and 1 for the right operand (OpSigma only). Recorded
	// explicitly because later live-range splits can rewrite the
	// operand and break identification by pointer equality.
	CmpSide uint8
	// Line is the 1-based source line this instruction was lowered
	// from; 0 means unknown. Printed and parsed as a trailing
	// "!line N" so locations survive a textual round trip.
	Line int32

	name string
	// Typ is the result type; Void for instructions with no result.
	// An alloca's is a pointer to the allocated element type.
	Typ Type
	// Args are the value operands, interpreted per opcode.
	Args []Value
	// Succs are the successor blocks (OpBr: [true, false]; OpJmp:
	// [target]).
	Succs []*Block
	ext   *payload

	// Blk is the block containing the instruction.
	Blk *Block
	// id is the value id plus one, so the zero Instr has none; see ID.
	id int32
}

// payload holds what an alloca of more than one element, a call, a
// phi, a sigma and a split copy need beyond Args, Typ and Succs. No
// other instruction has one, and neither does an alloca of one
// element: a nil payload stands for NumElems() == 1.
type payload struct {
	// blocks[i] is the predecessor of incoming value Args[i] (OpPhi).
	blocks []*Block
	// calleeName names the called function; callee is that function
	// when it is defined in the module (OpCall).
	calleeName string
	callee     *Func
	// ref is the comparison a sigma refines by (OpSigma) or the
	// subtraction a split copy splits for (OpCopy).
	ref *Instr
	// numElems is an alloca's element count (OpAlloca).
	numElems int64
}

// NewAlloca returns an unattached alloca of n elements of elem.
func NewAlloca(elem Type, n int64) *Instr {
	in := &Instr{Op: OpAlloca, Typ: Ptr(elem)}
	if n != 1 {
		in.ext = &payload{numElems: n}
	}
	return in
}

// NewSigma returns an unattached sigma of x that refines it by the
// outcome of cmp on its true (onTrue) or false edge; side is 0 when x
// is cmp's left operand and 1 when it is the right.
func NewSigma(x Value, cmp *Instr, onTrue bool, side int) *Instr {
	return &Instr{
		Op: OpSigma, Typ: x.Type(), Args: []Value{x},
		OnTrue: onTrue, CmpSide: uint8(side), ext: &payload{ref: cmp},
	}
}

// NewCopy returns an unattached copy of x that splits x's live range
// at the subtraction sub.
func NewCopy(x Value, sub *Instr) *Instr {
	return &Instr{Op: OpCopy, Typ: x.Type(), Args: []Value{x}, ext: &payload{ref: sub}}
}

// AllocTyp returns the element type an alloca allocates: the pointee
// of its result type.
func (in *Instr) AllocTyp() Type {
	if pt, ok := in.Typ.(*PtrType); ok {
		return pt.Elem
	}
	return nil
}

// NumElems returns the number of elements an alloca allocates
// (OpAlloca only).
func (in *Instr) NumElems() int64 {
	if in.ext == nil {
		return 1
	}
	return in.ext.numElems
}

// Callee returns the called function if it is defined in this module,
// and nil for an external call (OpCall only).
func (in *Instr) Callee() *Func {
	if in.ext == nil {
		return nil
	}
	return in.ext.callee
}

// SetCallee binds a call to f, or unbinds it when f is nil; the
// callee's name stays as it was.
func (in *Instr) SetCallee(f *Func) { in.extOrNew().callee = f }

// CalleeName returns the name of the called function; it is set even
// when Callee is nil (OpCall only).
func (in *Instr) CalleeName() string {
	if in.ext == nil {
		return ""
	}
	return in.ext.calleeName
}

// PhiBlocks returns the predecessor block of each incoming value, in
// the order of Args (OpPhi only). The slice is the phi's own: writing
// an element retargets that edge.
func (in *Instr) PhiBlocks() []*Block {
	if in.ext == nil {
		return nil
	}
	return in.ext.blocks
}

// Cmp returns the comparison whose outcome is known at this sigma
// (OpSigma only).
func (in *Instr) Cmp() *Instr {
	if in.Op != OpSigma || in.ext == nil {
		return nil
	}
	return in.ext.ref
}

// SubUser returns the subtraction whose operand this copy splits, or
// nil for a plain copy (OpCopy only).
func (in *Instr) SubUser() *Instr {
	if in.Op != OpCopy || in.ext == nil {
		return nil
	}
	return in.ext.ref
}

// extOrNew returns in's payload, allocating it on first use.
func (in *Instr) extOrNew() *payload {
	if in.ext == nil {
		in.ext = &payload{}
	}
	return in.ext
}

// ID returns the instruction's value id, dense within its function
// (see Func.NumValues), or -1 when it has none: an instruction gets
// one when it joins a function through Block.Attach, Append or Insert.
func (in *Instr) ID() int { return int(in.id) - 1 }

// Type returns the result type of the instruction.
func (in *Instr) Type() Type { return in.Typ }

// Name returns the result name without the % sigil.
func (in *Instr) Name() string { return in.name }

// SetName renames the instruction's result.
func (in *Instr) SetName(n string) { in.name = n }

// Ref returns "%name".
func (in *Instr) Ref() string { return "%" + in.name }

func (in *Instr) isValue() {}

// HasResult reports whether the instruction defines a value.
func (in *Instr) HasResult() bool {
	switch in.Op {
	case OpStore, OpBr, OpJmp, OpRet:
		return false
	case OpCall:
		return !Equal(in.Typ, Void)
	}
	return true
}

// ReplaceUses replaces every occurrence of old in the operand list
// with new and reports how many replacements were made.
func (in *Instr) ReplaceUses(old, new Value) int {
	n := 0
	for i, a := range in.Args {
		if a == old {
			in.Args[i] = new
			n++
		}
	}
	return n
}

// Incoming returns the phi operand flowing in from predecessor b, or
// nil if b is not an incoming block. Panics unless in is a phi.
func (in *Instr) Incoming(b *Block) Value {
	if in.Op != OpPhi {
		panic("ir: Incoming on non-phi")
	}
	for i, pb := range in.PhiBlocks() {
		if pb == b {
			return in.Args[i]
		}
	}
	return nil
}

// RetainIncoming keeps the incoming pairs of phi whose predecessor
// keep accepts, in order, and drops the rest.
func (in *Instr) RetainIncoming(keep func(pred *Block) bool) {
	blocks := in.PhiBlocks()
	n := 0
	for i, pb := range blocks {
		if keep(pb) {
			in.Args[n], blocks[n] = in.Args[i], pb
			n++
		}
	}
	in.Args = in.Args[:n]
	if in.ext != nil {
		in.ext.blocks = blocks[:n]
	}
}
