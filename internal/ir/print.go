package ir

import "strconv"

// The printer appends to a byte slice, in the style of strconv's
// Append functions, so printing allocates nothing per instruction or
// operand. String is a thin wrapper over the append form; the memo key
// appends into a reused buffer and allocates nothing at all.

// String renders the module in the textual syntax accepted by Parse.
func (m *Module) String() string { return string(appendModule(nil, m)) }

// String renders the function in the textual syntax.
func (f *Func) String() string { return string(AppendFunc(nil, f)) }

// String renders the instruction in the textual syntax.
func (in *Instr) String() string { return string(appendInstr(nil, in)) }

// appendModule appends the textual form of m to b.
func appendModule(b []byte, m *Module) []byte {
	if m.Name != "" {
		b = append(b, "module "...)
		b = strconv.AppendQuote(b, m.Name)
		b = append(b, "\n\n"...)
	}
	for _, g := range m.Globals {
		b = append(b, "global @"...)
		b = append(b, g.GName...)
		b = append(b, ' ')
		b = AppendType(b, g.Elem)
		b = append(b, '\n')
	}
	if len(m.Globals) > 0 {
		b = append(b, '\n')
	}
	for i, f := range m.Funcs {
		if i > 0 {
			b = append(b, '\n')
		}
		b = AppendFunc(b, f)
	}
	return b
}

// AppendFunc appends the textual form of f to b.
func AppendFunc(b []byte, f *Func) []byte {
	b = append(b, "func @"...)
	b = append(b, f.FName...)
	b = append(b, '(')
	for i, p := range f.Params {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = AppendType(b, p.Typ)
		b = append(b, " %"...)
		b = append(b, p.PName...)
	}
	b = append(b, ") "...)
	b = AppendType(b, f.RetTyp)
	b = append(b, " {\n"...)
	for _, blk := range f.Blocks {
		b = append(b, blk.name...)
		b = append(b, ":\n"...)
		for _, in := range blk.Instrs {
			b = append(b, "  "...)
			b = appendInstr(b, in)
			b = append(b, '\n')
		}
	}
	return append(b, "}\n"...)
}

// appendInstr appends the textual form of in to b, without
// indentation or a trailing newline.
func appendInstr(b []byte, in *Instr) []byte {
	if in.HasResult() {
		b = append(b, '%')
		b = append(b, in.name...)
		b = append(b, " = "...)
	}
	switch in.Op {
	case OpAlloca:
		b = append(b, "alloca "...)
		b = AppendType(b, in.AllocTyp())
		b = append(b, ", "...)
		b = strconv.AppendInt(b, in.NumElems(), 10)
	case OpMalloc:
		b = append(b, "malloc "...)
		b = AppendType(b, in.Typ.(*PtrType).Elem)
		b = append(b, ", "...)
		b = AppendRef(b, in.Args[0])
	case OpLoad:
		b = append(b, "load "...)
		b = AppendRef(b, in.Args[0])
	case OpStore:
		b = appendPair(append(b, "store "...), in.Args[0], in.Args[1])
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr:
		b = append(b, in.Op.String()...)
		b = appendPair(append(b, ' '), in.Args[0], in.Args[1])
	case OpICmp:
		b = append(b, "icmp "...)
		b = append(b, in.Pred.String()...)
		b = appendPair(append(b, ' '), in.Args[0], in.Args[1])
	case OpGEP:
		b = appendPair(append(b, "gep "...), in.Args[0], in.Args[1])
	case OpPhi:
		b = append(b, "phi "...)
		b = AppendType(b, in.Typ)
		blocks := in.PhiBlocks()
		for i, a := range in.Args {
			b = append(b, " ["...)
			b = AppendRef(b, a)
			b = append(b, ", "...)
			b = append(b, blocks[i].name...)
			b = append(b, ']')
			if i < len(in.Args)-1 {
				b = append(b, ',')
			}
		}
	case OpSigma:
		b = append(b, "sigma "...)
		b = AppendRef(b, in.Args[0])
		b = append(b, ", cmp "...)
		b = AppendRef(b, in.Cmp())
		if in.OnTrue {
			b = append(b, ", true"...)
		} else {
			b = append(b, ", false"...)
		}
		if in.CmpSide == 1 {
			b = append(b, ", right"...)
		} else {
			b = append(b, ", left"...)
		}
	case OpCopy:
		b = append(b, "copy "...)
		b = AppendRef(b, in.Args[0])
		if sub := in.SubUser(); sub != nil {
			b = append(b, ", sub "...)
			b = AppendRef(b, sub)
		}
	case OpCall:
		b = append(b, "call "...)
		b = AppendType(b, in.Typ)
		b = append(b, " @"...)
		b = append(b, in.CalleeName()...)
		b = append(b, '(')
		b = appendArgs(b, in.Args)
		b = append(b, ')')
	case OpBr:
		b = append(b, "br "...)
		b = AppendRef(b, in.Args[0])
		b = append(b, ", "...)
		b = append(b, in.Succs[0].name...)
		b = append(b, ", "...)
		b = append(b, in.Succs[1].name...)
	case OpJmp:
		b = append(b, "jmp "...)
		b = append(b, in.Succs[0].name...)
	case OpRet:
		b = append(b, "ret"...)
		if len(in.Args) > 0 {
			b = append(b, ' ')
			b = AppendRef(b, in.Args[0])
		}
	default:
		b = append(b, "<bad op "...)
		b = strconv.AppendInt(b, int64(in.Op), 10)
		b = append(b, '>')
	}
	if in.Line > 0 {
		b = append(b, " !line "...)
		b = strconv.AppendInt(b, int64(in.Line), 10)
	}
	return b
}

// appendPair appends two operands separated by a comma.
func appendPair(b []byte, x, y Value) []byte {
	return AppendRef(append(AppendRef(b, x), ", "...), y)
}

// appendArgs appends the operands as a comma-separated list.
func appendArgs(b []byte, args []Value) []byte {
	for i, a := range args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = AppendRef(b, a)
	}
	return b
}

// AppendRef appends v's operand rendering, as Value.Ref returns it, to
// b. Undef falls through to its Ref, a constant.
func AppendRef(b []byte, v Value) []byte {
	switch v := v.(type) {
	case *Const:
		return strconv.AppendInt(b, v.Val, 10)
	case *Instr:
		return append(append(b, '%'), v.name...)
	case *Param:
		return append(append(b, '%'), v.PName...)
	case *Global:
		return append(append(b, '@'), v.GName...)
	}
	return append(b, v.Ref()...)
}

// AppendType appends the textual form of t to b. A missing type
// prints as fmt's "%!s(<nil>)", the form the printer has always given
// it.
func AppendType(b []byte, t Type) []byte {
	switch t := t.(type) {
	case nil:
		return append(b, "%!s(<nil>)"...)
	case *IntType:
		return strconv.AppendInt(append(b, 'i'), int64(t.Bits), 10)
	case *PtrType:
		return append(AppendType(b, t.Elem), '*')
	case *ArrayType:
		b = strconv.AppendInt(append(b, '['), t.Len, 10)
		b = AppendType(append(b, " x "...), t.Elem)
		return append(b, ']')
	case *VoidType:
		return append(b, "void"...)
	case *FuncType:
		b = append(AppendType(b, t.Ret), '(')
		for i, p := range t.Params {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = AppendType(b, p)
		}
		return append(b, ')')
	}
	panic("ir: AppendType: unknown type") // every String method prints through here
}
