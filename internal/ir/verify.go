package ir

import (
	"fmt"
)

// Verify checks structural well-formedness of a module: every block
// ends in exactly one terminator, terminators appear only at block
// ends, phi instructions sit at block heads and match their block's
// predecessors, operand types are consistent, and no operand is left
// unresolved, and every parameter and instruction has its own value
// id below Func.NumValues. It does not check the SSA dominance
// property; that requires a dominator tree and lives in internal/ssa.
func Verify(m *Module) error {
	n, ids := 0, 0
	for _, f := range m.Funcs {
		n = max(n, len(f.Params)+f.NumInstrs())
		ids = max(ids, f.NumValues())
	}
	names := newNameSet(n, ids)
	for _, f := range m.Funcs {
		if err := verifyFunc(f, names); err != nil {
			return fmt.Errorf("func @%s: %w", f.FName, err)
		}
	}
	return nil
}

// VerifyFunc checks structural well-formedness of a single function.
func VerifyFunc(f *Func) error {
	return verifyFunc(f, newNameSet(len(f.Params)+f.NumInstrs(), f.NumValues()))
}

// nameSet is the set of names and value ids a function defines. Verify
// reuses one across a module's functions: a name or id is in the set
// only if it carries the current function's stamp, so starting the
// next function clears nothing. (Clearing a map costs its capacity,
// which the module's largest function sets, once per function.)
type nameSet struct {
	stamp map[string]int32
	ids   []int32
	cur   int32
}

func newNameSet(n, ids int) *nameSet {
	return &nameSet{stamp: make(map[string]int32, n), ids: make([]int32, ids)}
}

// addID inserts id, which must be non-negative, and reports whether it
// was not yet in the set.
func (s *nameSet) addID(id int) bool {
	if id >= len(s.ids) {
		s.ids = append(s.ids, make([]int32, id+1-len(s.ids))...)
	}
	if s.ids[id] == s.cur {
		return false
	}
	s.ids[id] = s.cur
	return true
}

// add inserts name and reports whether it was not yet in the set.
func (s *nameSet) add(name string) bool {
	if s.stamp[name] == s.cur {
		return false
	}
	s.stamp[name] = s.cur
	return true
}

func verifyFunc(f *Func, defined *nameSet) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("function has no blocks")
	}
	f.RecomputeCFG()
	defined.cur++
	for i, p := range f.Params {
		if !defined.add(p.PName) {
			return fmt.Errorf("duplicate parameter %%%s", p.PName)
		}
		if p.Fn != f || p.Index != i {
			return fmt.Errorf("parameter %%%s is not parameter %d of this function", p.PName, i)
		}
	}
	nv := f.NumValues()
	// predOf[i] is 1 + the index of the last block found to have
	// block i as a predecessor.
	predOf := make([]int, len(f.Blocks))
	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %s is empty", b.Name())
		}
		for i, in := range b.Instrs {
			if in.Blk != b {
				return fmt.Errorf("block %s: instruction %s has wrong parent", b.Name(), in)
			}
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				if isLast {
					return fmt.Errorf("block %s does not end in a terminator", b.Name())
				}
				return fmt.Errorf("block %s: terminator %s in mid-block", b.Name(), in)
			}
			if err := verifyInstr(in); err != nil {
				return fmt.Errorf("block %s: %s: %w", b.Name(), in, err)
			}
			switch id := in.ID(); {
			case id < 0:
				return fmt.Errorf("block %s: %s has no value id", b.Name(), in)
			case id < len(f.Params) || id >= nv:
				return fmt.Errorf("block %s: %s has value id %d, outside [%d, %d)", b.Name(), in, id, len(f.Params), nv)
			case !defined.addID(id):
				return fmt.Errorf("block %s: %s has value id %d, already taken", b.Name(), in, id)
			}
			if in.HasResult() {
				if in.Name() == "" {
					return fmt.Errorf("block %s: unnamed result in %s", b.Name(), in)
				}
				if !defined.add(in.Name()) {
					return fmt.Errorf("block %s: %%%s defined twice (SSA violation)", b.Name(), in.Name())
				}
			}
		}
		// Phis must be at the head, before sigmas and ordinary
		// instructions; sigmas before ordinary instructions.
		state := 0 // 0 = phis, 1 = sigmas, 2 = rest
		for _, in := range b.Instrs {
			switch in.Op {
			case OpPhi:
				if state > 0 {
					return fmt.Errorf("block %s: phi %s after non-phi", b.Name(), in.Ref())
				}
			case OpSigma:
				if state > 1 {
					return fmt.Errorf("block %s: sigma %s after ordinary instruction", b.Name(), in.Ref())
				}
				state = 1
			default:
				state = 2
			}
		}
		// Phi incoming blocks must exactly match predecessors.
		phis := b.Instrs[:b.NumPhis()]
		if len(phis) == 0 {
			continue
		}
		for _, pred := range b.Preds {
			predOf[pred.Index] = bi + 1
		}
		for _, phi := range phis {
			if len(phi.Args) != len(b.Preds) {
				return fmt.Errorf("block %s: phi %s has %d incoming, block has %d preds",
					b.Name(), phi.Ref(), len(phi.Args), len(b.Preds))
			}
			for _, pb := range phi.PhiBlocks() {
				if pb.Index >= len(f.Blocks) || f.Blocks[pb.Index] != pb || predOf[pb.Index] != bi+1 {
					return fmt.Errorf("block %s: phi %s names non-predecessor %s",
						b.Name(), phi.Ref(), pb.Name())
				}
			}
		}
	}
	return nil
}

func verifyInstr(in *Instr) error {
	for i, a := range in.Args {
		if a == nil {
			return fmt.Errorf("operand %d is nil", i)
		}
		if ai, ok := a.(*Instr); ok && ai == nil {
			return fmt.Errorf("operand %d is an unresolved placeholder", i)
		}
	}
	argc := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("expected %d operands, got %d", n, len(in.Args))
		}
		return nil
	}
	switch in.Op {
	case OpAlloca:
		if in.AllocTyp() == nil || in.NumElems() <= 0 {
			return fmt.Errorf("bad alloca shape")
		}
		return argc(0)
	case OpMalloc:
		if err := argc(1); err != nil {
			return err
		}
		if !IsInt(in.Args[0].Type()) {
			return fmt.Errorf("malloc size must be integer")
		}
	case OpLoad:
		if err := argc(1); err != nil {
			return err
		}
		pt, ok := in.Args[0].Type().(*PtrType)
		if !ok {
			return fmt.Errorf("load from non-pointer")
		}
		if !Equal(loadableElem(pt), in.Typ) {
			return fmt.Errorf("load type %s does not match pointee %s", in.Typ, pt.Elem)
		}
	case OpStore:
		if err := argc(2); err != nil {
			return err
		}
		pt, ok := in.Args[1].Type().(*PtrType)
		if !ok {
			return fmt.Errorf("store to non-pointer")
		}
		if !Equal(in.Args[0].Type(), pt.Elem) && !isNullConstFor(in.Args[0], pt.Elem) {
			return fmt.Errorf("store value type %s does not match pointee %s",
				in.Args[0].Type(), pt.Elem)
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr:
		if err := argc(2); err != nil {
			return err
		}
		if !IsInt(in.Typ) {
			return fmt.Errorf("arithmetic result must be integer")
		}
	case OpICmp:
		if err := argc(2); err != nil {
			return err
		}
		if !Equal(in.Typ, I1) {
			return fmt.Errorf("icmp result must be i1")
		}
		at, bt := in.Args[0].Type(), in.Args[1].Type()
		if !Equal(at, bt) && !icmpNullMix(in.Args[0], in.Args[1]) {
			return fmt.Errorf("icmp operand types disagree: %s vs %s", at, bt)
		}
	case OpGEP:
		if err := argc(2); err != nil {
			return err
		}
		rt := GEPResultType(in.Args[0].Type())
		if rt == nil {
			return fmt.Errorf("gep base must be pointer")
		}
		if !Equal(in.Typ, rt) {
			return fmt.Errorf("gep result type %s, want %s", in.Typ, rt)
		}
		if !IsInt(in.Args[1].Type()) {
			return fmt.Errorf("gep index must be integer")
		}
	case OpPhi:
		if len(in.Args) == 0 || len(in.Args) != len(in.PhiBlocks()) {
			return fmt.Errorf("phi operand/block mismatch")
		}
	case OpSigma:
		if err := argc(1); err != nil {
			return err
		}
		if in.Cmp() == nil {
			return fmt.Errorf("sigma without controlling cmp")
		}
		if in.Cmp().Op != OpICmp {
			return fmt.Errorf("sigma cmp is not an icmp")
		}
	case OpCopy:
		return argc(1)
	case OpCall:
		if in.CalleeName() == "" {
			return fmt.Errorf("call without callee name")
		}
		if c := in.Callee(); c != nil && len(c.Params) != len(in.Args) {
			return fmt.Errorf("call to @%s with %d args, wants %d",
				in.CalleeName(), len(in.Args), len(c.Params))
		}
	case OpBr:
		if err := argc(1); err != nil {
			return err
		}
		if len(in.Succs) != 2 {
			return fmt.Errorf("br needs 2 successors")
		}
	case OpJmp:
		if len(in.Succs) != 1 {
			return fmt.Errorf("jmp needs 1 successor")
		}
		return argc(0)
	case OpRet:
		if len(in.Args) > 1 {
			return fmt.Errorf("ret takes at most one operand")
		}
	}
	return nil
}

// loadableElem returns the type a load through pt yields: the pointee,
// with arrays decaying to their element type is NOT done here — loads
// of whole arrays are rejected by returning the array type, which will
// not match the load's scalar result type.
func loadableElem(pt *PtrType) Type { return pt.Elem }

// isNullConstFor reports whether v is the null-pointer idiom for a
// pointer-typed cell: the integer constant 0 standing in for a null
// of the pointee type (C's NULL).
func isNullConstFor(v Value, pointee Type) bool {
	if !IsPtr(pointee) {
		return false
	}
	c, ok := v.(*Const)
	return ok && c.Val == 0 && IsInt(c.Typ)
}

// icmpNullMix reports whether a type-mismatched comparison is the C
// NULL idiom: a pointer compared against an integer constant (either
// side), as in "if (p == 0)".
func icmpNullMix(a, b Value) bool {
	isIntConst := func(v Value) bool {
		c, ok := v.(*Const)
		return ok && IsInt(c.Typ)
	}
	return (IsPtr(a.Type()) && isIntConst(b)) || (IsPtr(b.Type()) && isIntConst(a))
}
