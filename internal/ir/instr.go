package ir

import "fmt"

// Op identifies the operation an instruction performs.
type Op int

// The instruction set. OpSigma and OpCopy are introduced by the e-SSA
// transformation (internal/essa) and never produced by the frontend.
const (
	// OpAlloca allocates NumElems elements of AllocTyp on the stack
	// and yields a pointer to the first. Each static alloca is an
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
	// PhiBlocks[i] control came from.
	OpPhi
	// OpSigma is an e-SSA live-range split: a copy of Args[0] placed at
	// the head of a branch target, carrying the branch condition that
	// is known to hold there (Cmp, OnTrue).
	OpSigma
	// OpCopy is an e-SSA live-range split at a subtraction: a parallel
	// copy of the subtrahend's left operand (rule in Figure 5b of the
	// paper). SubUser points at the subtraction that triggered it.
	OpCopy
	// OpCall invokes Callee (or an external function named CalleeName)
	// with Args.
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
type CmpPred int

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
// the operand slice Args is interpreted per Op, and a handful of
// op-specific fields carry what operands cannot. Instructions that
// produce a value implement Value.
type Instr struct {
	Op   Op
	name string
	// Typ is the result type; Void for instructions with no result.
	Typ Type
	// Args are the value operands, interpreted per opcode.
	Args []Value

	// Pred is the comparison predicate (OpICmp only).
	Pred CmpPred
	// AllocTyp is the element type allocated (OpAlloca only).
	AllocTyp Type
	// NumElems is the number of elements allocated (OpAlloca only).
	NumElems int64
	// Callee is the called function, if it is defined in this module
	// (OpCall only).
	Callee *Func
	// CalleeName is the name of the called function; set even when
	// Callee is nil (external call).
	CalleeName string
	// PhiBlocks[i] is the predecessor block associated with incoming
	// value Args[i] (OpPhi only).
	PhiBlocks []*Block
	// Succs are the successor blocks (OpBr: [true, false]; OpJmp:
	// [target]).
	Succs []*Block
	// Cmp is the comparison whose outcome is known at this sigma
	// (OpSigma only).
	Cmp *Instr
	// OnTrue reports whether the sigma sits on the true edge of Cmp
	// (OpSigma only).
	OnTrue bool
	// CmpSide is 0 when the sigma refines Cmp's left operand and 1
	// for the right operand (OpSigma only). Recorded explicitly
	// because later live-range splits can rewrite the operand and
	// break identification by pointer equality.
	CmpSide int
	// SubUser is the subtraction whose operand this copy splits
	// (OpCopy only; nil for plain copies).
	SubUser *Instr

	// Line is the 1-based source line this instruction was lowered
	// from; 0 means unknown. Printed and parsed as a trailing
	// "!line N" so locations survive a textual round trip.
	Line int

	// Blk is the block containing the instruction.
	Blk *Block
}

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
	for i, pb := range in.PhiBlocks {
		if pb == b {
			return in.Args[i]
		}
	}
	return nil
}
