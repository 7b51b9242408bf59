package minic

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/ssa"
)

// Compile parses src, lowers it to IR, promotes locals to SSA form,
// and verifies the result. name becomes the module name.
func Compile(name, src string) (*ir.Module, error) {
	prog, err := ParseProgram(src)
	if err != nil {
		return nil, err
	}
	m, err := LowerProgram(name, prog)
	if err != nil {
		return nil, err
	}
	for _, f := range m.Funcs {
		ssa.Promote(f)
		if err := ssa.VerifySSA(f); err != nil {
			return nil, fmt.Errorf("minic: internal error: %s: %w", f.FName, err)
		}
	}
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("minic: internal error: %w", err)
	}
	return m, nil
}

// MustCompile is Compile that panics on error; for tests and the
// embedded benchmark corpus.
func MustCompile(name, src string) *ir.Module {
	m, err := Compile(name, src)
	if err != nil {
		panic(err)
	}
	return m
}

// LowerProgram lowers a parsed program to IR without SSA promotion:
// every local lives in an alloca. Useful for testing the promotion
// pass itself; most callers want Compile.
func LowerProgram(name string, prog *Program) (m *ir.Module, err error) {
	lw := &lowerer{
		mod:     ir.NewModule(name),
		funcs:   map[string]*ir.Func{},
		rets:    map[string]CType{},
		globals: map[string]*symbol{},
		locals:  map[string]*symbol{},
	}
	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(*lowerError); ok {
				m, err = nil, le
				return
			}
			panic(r)
		}
	}()
	for _, g := range prog.Globals {
		lw.lowerGlobal(g)
	}
	// Declare every function first so calls resolve regardless of
	// definition order.
	for _, fd := range prog.Funcs {
		lw.declareFunc(fd)
	}
	for _, fd := range prog.Funcs {
		lw.lowerFunc(fd)
	}
	if err := ir.Verify(lw.mod); err != nil {
		return nil, fmt.Errorf("minic: internal error: lowered module invalid: %w", err)
	}
	return lw.mod, nil
}

type lowerError struct {
	line int
	msg  string
}

func (e *lowerError) Error() string {
	return fmt.Sprintf("minic: line %d: %s", e.line, e.msg)
}

// symbol is a named storage location in scope.
type symbol struct {
	// addr is a pointer to the storage: an alloca result or a global.
	addr ir.Value
	// typ is the value type stored (for arrays, the element type).
	typ CType
	// isArray marks array declarations, which decay on use.
	isArray bool

	// A local also records its name, the depth of the scope that
	// declared it and the local of the same name it shadows, which
	// becomes visible again when that scope closes.
	name     string
	depth    int
	shadowed *symbol
}

type loopCtx struct {
	breakBlk, continueBlk *ir.Block
}

type lowerer struct {
	mod     *ir.Module
	funcs   map[string]*ir.Func
	rets    map[string]CType
	globals map[string]*symbol

	fn  *ir.Func
	bld *ir.Builder
	// locals maps each name to the innermost local declared under it
	// in the open scopes. decls lists those locals in declaration
	// order, and scopes[d] is where scope d+1's declarations start;
	// closing a scope restores what its locals shadowed, so the map is
	// empty again between functions.
	locals map[string]*symbol
	decls  []*symbol
	scopes []int
	loops  []loopCtx
	// terminated is true when the current block already has a
	// terminator; further statements open a dead block.
	terminated bool
}

func (lw *lowerer) fail(line int, format string, args ...any) {
	panic(&lowerError{line: line, msg: fmt.Sprintf(format, args...)})
}

// irType maps a CType to an IR type.
func irType(t CType) ir.Type {
	if t.Void {
		return ir.Void
	}
	var typ ir.Type = ir.I64
	for i := 0; i < t.PtrDepth; i++ {
		typ = ir.Ptr(typ)
	}
	return typ
}

func (lw *lowerer) lowerGlobal(d *VarDecl) {
	if lw.globals[d.Name] != nil {
		lw.fail(d.Line, "global %s redeclared", d.Name)
	}
	elem := irType(d.Typ)
	if d.ArrayLen > 0 {
		elem = ir.ArrayOf(d.ArrayLen, elem)
	}
	g := lw.mod.AddGlobal(d.Name, elem)
	s := &symbol{addr: g, typ: ctypeOf(elem)}
	if at, ok := elem.(*ir.ArrayType); ok {
		s.typ, s.isArray = ctypeOf(at.Elem), true
	}
	lw.globals[d.Name] = s
}

func (lw *lowerer) declareFunc(fd *FuncDecl) {
	if _, dup := lw.funcs[fd.Name]; dup {
		lw.fail(fd.Line, "function %s redefined", fd.Name)
	}
	names := make([]string, len(fd.Params))
	types := make([]ir.Type, len(fd.Params))
	for i, p := range fd.Params {
		names[i] = p.Name
		types[i] = irType(p.Typ)
	}
	f := lw.mod.AddFunc(fd.Name, irType(fd.Ret), names, types)
	lw.funcs[fd.Name] = f
	lw.rets[fd.Name] = fd.Ret
}

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, len(lw.decls)) }

func (lw *lowerer) popScope() {
	start := lw.scopes[len(lw.scopes)-1]
	lw.scopes = lw.scopes[:len(lw.scopes)-1]
	for i := len(lw.decls) - 1; i >= start; i-- {
		s := lw.decls[i]
		if s.shadowed != nil {
			lw.locals[s.name] = s.shadowed
		} else {
			delete(lw.locals, s.name)
		}
	}
	lw.decls = lw.decls[:start]
}

func (lw *lowerer) define(line int, name string, s *symbol) {
	prev := lw.locals[name]
	if prev != nil && prev.depth == len(lw.scopes) {
		lw.fail(line, "%s redeclared in this scope", name)
	}
	s.name, s.depth, s.shadowed = name, len(lw.scopes), prev
	lw.locals[name] = s
	lw.decls = append(lw.decls, s)
}

func (lw *lowerer) lookup(name string) *symbol {
	if s := lw.locals[name]; s != nil {
		return s
	}
	return lw.globals[name]
}

func (lw *lowerer) lowerFunc(fd *FuncDecl) {
	lw.fn = lw.funcs[fd.Name]
	lw.bld = ir.NewBuilder(lw.fn)
	lw.loops = nil
	lw.terminated = false
	lw.pushScope()

	entry := lw.fn.NewBlock("entry")
	lw.bld.SetBlock(entry)
	// Spill parameters into allocas so they are addressable; SSA
	// promotion recovers registers (the standard clang approach).
	for i, p := range fd.Params {
		a := lw.bld.Named(p.Name+".addr").Alloca(irType(p.Typ), 1)
		lw.bld.Store(lw.fn.Params[i], a)
		lw.define(p.Line, p.Name, &symbol{addr: a, typ: p.Typ})
	}
	lw.lowerBlock(fd.Body)
	if !lw.terminated {
		if fd.Ret.Void {
			lw.bld.Ret(nil)
		} else {
			lw.bld.Ret(ir.ConstInt(0)) // C-style implicit return
		}
	}
	// Dead blocks opened after terminators may lack terminators.
	for _, b := range lw.fn.Blocks {
		if b.Term() == nil {
			lw.bld.SetBlock(b)
			if fd.Ret.Void {
				lw.bld.Ret(nil)
			} else {
				lw.bld.Ret(ir.ConstInt(0))
			}
		}
	}
	lw.fn.RecomputeCFG()
	lw.popScope()
}

// startBlock switches emission to b and clears the terminated flag.
func (lw *lowerer) startBlock(b *ir.Block) {
	lw.bld.SetBlock(b)
	lw.terminated = false
}

// ensureLive opens a fresh dead block if the current one is already
// terminated, so that statements after return/break lower somewhere.
func (lw *lowerer) ensureLive() {
	if lw.terminated {
		lw.startBlock(lw.fn.NewBlock("dead"))
	}
}

func (lw *lowerer) lowerBlock(b *BlockStmt) {
	lw.pushScope()
	for _, s := range b.Stmts {
		lw.lowerStmt(s)
	}
	lw.popScope()
}

func (lw *lowerer) lowerStmt(s Stmt) {
	switch s := s.(type) {
	case *BlockStmt:
		lw.lowerBlock(s)
	case *DeclStmt:
		lw.ensureLive()
		for _, d := range s.Decls {
			lw.lowerDecl(d)
		}
	case *ExprStmt:
		lw.ensureLive()
		lw.lowerExpr(s.X, CType{})
	case *IfStmt:
		lw.ensureLive()
		then := lw.fn.NewBlock("if.then")
		join := lw.fn.NewBlock("if.end")
		els := join
		if s.Else != nil {
			els = lw.fn.NewBlock("if.else")
		}
		lw.lowerCond(s.Cond, then, els)
		lw.startBlock(then)
		lw.lowerStmt(s.Then)
		if !lw.terminated {
			lw.bld.Jmp(join)
		}
		if s.Else != nil {
			lw.startBlock(els)
			lw.lowerStmt(s.Else)
			if !lw.terminated {
				lw.bld.Jmp(join)
			}
		}
		lw.startBlock(join)
	case *WhileStmt:
		lw.ensureLive()
		head := lw.fn.NewBlock("while.cond")
		body := lw.fn.NewBlock("while.body")
		exit := lw.fn.NewBlock("while.end")
		if s.DoWhile {
			lw.bld.Jmp(body)
		} else {
			lw.bld.Jmp(head)
		}
		lw.startBlock(head)
		lw.lowerCond(s.Cond, body, exit)
		lw.startBlock(body)
		lw.loops = append(lw.loops, loopCtx{breakBlk: exit, continueBlk: head})
		lw.lowerStmt(s.Body)
		lw.loops = lw.loops[:len(lw.loops)-1]
		if !lw.terminated {
			lw.bld.Jmp(head)
		}
		lw.startBlock(exit)
	case *ForStmt:
		lw.ensureLive()
		lw.pushScope() // the init declaration scopes over the loop
		if s.Init != nil {
			lw.lowerStmt(s.Init)
		}
		head := lw.fn.NewBlock("for.cond")
		body := lw.fn.NewBlock("for.body")
		post := lw.fn.NewBlock("for.inc")
		exit := lw.fn.NewBlock("for.end")
		lw.bld.Jmp(head)
		lw.startBlock(head)
		if s.Cond != nil {
			lw.lowerCond(s.Cond, body, exit)
		} else {
			lw.bld.Jmp(body)
		}
		lw.startBlock(body)
		lw.loops = append(lw.loops, loopCtx{breakBlk: exit, continueBlk: post})
		lw.lowerStmt(s.Body)
		lw.loops = lw.loops[:len(lw.loops)-1]
		if !lw.terminated {
			lw.bld.Jmp(post)
		}
		lw.startBlock(post)
		if s.Post != nil {
			lw.lowerExpr(s.Post, CType{})
		}
		lw.bld.Jmp(head)
		lw.startBlock(exit)
		lw.popScope()
	case *ReturnStmt:
		lw.ensureLive()
		lw.bld.SetLine(s.Line)
		if s.X == nil {
			lw.bld.Ret(nil)
		} else {
			v, _ := lw.lowerExpr(s.X, CType{})
			lw.bld.Ret(v)
		}
		lw.terminated = true
	case *BreakStmt:
		lw.ensureLive()
		lw.bld.SetLine(s.Line)
		if len(lw.loops) == 0 {
			lw.fail(s.Line, "break outside loop")
		}
		lw.bld.Jmp(lw.loops[len(lw.loops)-1].breakBlk)
		lw.terminated = true
	case *ContinueStmt:
		lw.ensureLive()
		lw.bld.SetLine(s.Line)
		if len(lw.loops) == 0 {
			lw.fail(s.Line, "continue outside loop")
		}
		lw.bld.Jmp(lw.loops[len(lw.loops)-1].continueBlk)
		lw.terminated = true
	default:
		panic(fmt.Sprintf("minic: unknown statement %T", s))
	}
}

func (lw *lowerer) lowerDecl(d *VarDecl) {
	if d.Typ.Void {
		lw.fail(d.Line, "variable %s has void type", d.Name)
	}
	lw.bld.SetLine(d.Line)
	elem := irType(d.Typ)
	n := int64(1)
	isArray := d.ArrayLen > 0
	if isArray {
		n = d.ArrayLen
	}
	a := lw.bld.Named(d.Name+".addr").Alloca(elem, n)
	lw.define(d.Line, d.Name, &symbol{addr: a, typ: d.Typ, isArray: isArray})
	if d.Init != nil {
		if isArray {
			lw.fail(d.Line, "array %s cannot have an initializer", d.Name)
		}
		v, vt := lw.lowerExpr(d.Init, d.Typ)
		lw.checkAssignable(d.Line, d.Typ, vt)
		lw.bld.Store(v, a)
	}
}

// checkAssignable validates that a value of type from can initialize
// or be assigned to storage of type to. Integer literals are accepted
// for pointers only via malloc (handled earlier); mixing int and
// pointer otherwise is rejected to keep benchmarks honest.
func (lw *lowerer) checkAssignable(line int, to, from CType) {
	if to == from {
		return
	}
	lw.fail(line, "cannot assign %s to %s", from, to)
}

// lowerCond lowers e as a branch condition jumping to t or f.
func (lw *lowerer) lowerCond(e Expr, t, f *ir.Block) {
	if p := e.Pos(); p > 0 {
		lw.bld.SetLine(p)
	}
	switch e := e.(type) {
	case *BinExpr:
		switch e.Op {
		case "&&":
			mid := lw.fn.NewBlock("land")
			lw.lowerCond(e.L, mid, f)
			lw.startBlock(mid)
			lw.lowerCond(e.R, t, f)
			return
		case "||":
			mid := lw.fn.NewBlock("lor")
			lw.lowerCond(e.L, t, mid)
			lw.startBlock(mid)
			lw.lowerCond(e.R, t, f)
			return
		case "==", "!=", "<", "<=", ">", ">=":
			l, lt := lw.lowerExpr(e.L, CType{})
			r, rt := lw.lowerExpr(e.R, CType{})
			lw.checkComparable(e.Line, lt, rt)
			c := lw.bld.ICmp(predOf(e.Op), l, r)
			lw.bld.Br(c, t, f)
			lw.terminated = true
			return
		}
	case *UnExpr:
		if e.Op == "!" {
			lw.lowerCond(e.X, f, t)
			return
		}
	}
	// Fallback: value != 0.
	v, _ := lw.lowerExpr(e, CType{})
	zero := &ir.Const{Val: 0, Typ: v.Type()}
	c := lw.bld.ICmp(ir.CmpNE, v, zero)
	lw.bld.Br(c, t, f)
	lw.terminated = true
}

func (lw *lowerer) checkComparable(line int, a, b CType) {
	if a.Void || b.Void {
		lw.fail(line, "void value in comparison")
	}
	// Pointer comparisons against literal 0 (NULL) arrive as int;
	// allow int/pointer mixes in comparisons like C does for NULL.
}

func predOf(op string) ir.CmpPred {
	switch op {
	case "==":
		return ir.CmpEQ
	case "!=":
		return ir.CmpNE
	case "<":
		return ir.CmpLT
	case "<=":
		return ir.CmpLE
	case ">":
		return ir.CmpGT
	case ">=":
		return ir.CmpGE
	}
	panic("minic: bad comparison " + op)
}

// lvalue lowers e to (address, type of object).
func (lw *lowerer) lvalue(e Expr) (ir.Value, CType) {
	if p := e.Pos(); p > 0 {
		lw.bld.SetLine(p)
	}
	switch e := e.(type) {
	case *Ident:
		s := lw.lookup(e.Name)
		if s == nil {
			lw.fail(e.Line, "undefined variable %s", e.Name)
		}
		if s.isArray {
			lw.fail(e.Line, "array %s is not assignable", e.Name)
		}
		return s.addr, s.typ
	case *UnExpr:
		if e.Op == "*" {
			v, vt := lw.lowerExpr(e.X, CType{})
			if !vt.IsPtr() {
				lw.fail(e.Line, "cannot dereference %s", vt)
			}
			return v, vt.Deref()
		}
	case *IndexExpr:
		base, bt := lw.lowerExpr(e.X, CType{})
		if !bt.IsPtr() {
			lw.fail(e.Line, "cannot index %s", bt)
		}
		idx, it := lw.lowerExpr(e.Idx, CType{})
		if !it.IsInt() {
			lw.fail(e.Line, "array index must be int, got %s", it)
		}
		return lw.bld.GEP(base, idx), bt.Deref()
	}
	lw.fail(e.Pos(), "expression is not an lvalue")
	return nil, CType{}
}

// lowerExpr lowers e to a value. want is a contextual type hint used
// to type malloc results; CType{} means no expectation.
func (lw *lowerer) lowerExpr(e Expr, want CType) (ir.Value, CType) {
	if p := e.Pos(); p > 0 {
		lw.bld.SetLine(p)
	}
	switch e := e.(type) {
	case *IntLit:
		if want.IsPtr() {
			// Null (or a constant address) in pointer context: type
			// the constant as the expected pointer.
			return &ir.Const{Val: e.Val, Typ: irType(want)}, want
		}
		return ir.ConstInt(e.Val), CType{}
	case *Ident:
		s := lw.lookup(e.Name)
		if s == nil {
			lw.fail(e.Line, "undefined variable %s", e.Name)
		}
		if s.isArray {
			// Array decays to a pointer to its first element.
			return lw.decayedBase(s), s.typ.AddrOf()
		}
		return lw.bld.Load(s.addr), s.typ
	case *BinExpr:
		return lw.lowerBin(e)
	case *UnExpr:
		return lw.lowerUn(e)
	case *AssignExpr:
		return lw.lowerAssign(e)
	case *IncDecExpr:
		return lw.lowerIncDec(e)
	case *IndexExpr:
		addr, t := lw.lvalue(e)
		return lw.bld.Load(addr), t
	case *CallExpr:
		return lw.lowerCall(e, want)
	}
	panic(fmt.Sprintf("minic: unknown expression %T", e))
}

// decayedBase returns the pointer to the first element of an array
// symbol. Local array allocas already have element-pointer type;
// global arrays are typed [N x T]* and decay through a zero GEP.
func (lw *lowerer) decayedBase(s *symbol) ir.Value {
	if g, ok := s.addr.(*ir.Global); ok {
		if _, isArr := g.Elem.(*ir.ArrayType); isArr {
			return lw.bld.GEP(g, ir.ConstInt(0))
		}
	}
	return s.addr
}

func (lw *lowerer) lowerBin(e *BinExpr) (ir.Value, CType) {
	switch e.Op {
	case ",":
		lw.lowerExpr(e.L, CType{})
		return lw.lowerExpr(e.R, CType{})
	case "&&", "||":
		return lw.materializeBool(e), CType{}
	case "==", "!=", "<", "<=", ">", ">=":
		return lw.materializeBool(e), CType{}
	}
	l, lt := lw.lowerExpr(e.L, CType{})
	r, rt := lw.lowerExpr(e.R, CType{})
	switch e.Op {
	case "+":
		switch {
		case lt.IsPtr() && rt.IsInt():
			return lw.bld.GEP(l, r), lt
		case lt.IsInt() && rt.IsPtr():
			return lw.bld.GEP(r, l), rt
		case lt.IsPtr() && rt.IsPtr():
			lw.fail(e.Line, "cannot add two pointers")
		}
		return lw.bld.Add(l, r), CType{}
	case "-":
		switch {
		case lt.IsPtr() && rt.IsInt():
			neg := lw.bld.Sub(ir.ConstInt(0), r)
			return lw.bld.GEP(l, neg), lt
		case lt.IsPtr() && rt.IsPtr():
			lw.fail(e.Line, "pointer difference is not supported")
		case lt.IsInt() && rt.IsPtr():
			lw.fail(e.Line, "cannot subtract pointer from int")
		}
		return lw.bld.Sub(l, r), CType{}
	case "*", "/", "%", "&", "|", "^", "<<", ">>":
		if lt.IsPtr() || rt.IsPtr() {
			lw.fail(e.Line, "pointer operand to %q", e.Op)
		}
		return lw.bld.Bin(binOps[e.Op], l, r), CType{}
	}
	panic("minic: bad binary op " + e.Op)
}

// binOps and compoundOps map the integer operators to IR opcodes.
var (
	binOps = map[string]ir.Op{
		"*": ir.OpMul, "/": ir.OpDiv, "%": ir.OpRem, "&": ir.OpAnd,
		"|": ir.OpOr, "^": ir.OpXor, "<<": ir.OpShl, ">>": ir.OpShr,
	}
	compoundOps = map[string]ir.Op{
		"+=": ir.OpAdd, "-=": ir.OpSub, "*=": ir.OpMul,
		"/=": ir.OpDiv, "%=": ir.OpRem, "<<=": ir.OpShl,
		">>=": ir.OpShr,
	}
)

// materializeBool lowers a boolean expression used as a value into the
// canonical branch-and-phi form producing 0 or 1.
func (lw *lowerer) materializeBool(e Expr) ir.Value {
	t := lw.fn.NewBlock("bool.true")
	f := lw.fn.NewBlock("bool.false")
	join := lw.fn.NewBlock("bool.end")
	lw.lowerCond(e, t, f)
	lw.startBlock(t)
	lw.bld.Jmp(join)
	lw.startBlock(f)
	lw.bld.Jmp(join)
	lw.startBlock(join)
	phi := lw.bld.Phi(ir.I64)
	ir.AddIncoming(phi, ir.ConstInt(1), t)
	ir.AddIncoming(phi, ir.ConstInt(0), f)
	return phi
}

func (lw *lowerer) lowerUn(e *UnExpr) (ir.Value, CType) {
	switch e.Op {
	case "-":
		v, vt := lw.lowerExpr(e.X, CType{})
		if vt.IsPtr() {
			lw.fail(e.Line, "cannot negate a pointer")
		}
		return lw.bld.Sub(ir.ConstInt(0), v), CType{}
	case "~":
		v, vt := lw.lowerExpr(e.X, CType{})
		if vt.IsPtr() {
			lw.fail(e.Line, "cannot complement a pointer")
		}
		return lw.bld.Bin(ir.OpXor, v, ir.ConstInt(-1)), CType{}
	case "!":
		return lw.materializeBool(e), CType{}
	case "*":
		v, vt := lw.lowerExpr(e.X, CType{})
		if !vt.IsPtr() {
			lw.fail(e.Line, "cannot dereference %s", vt)
		}
		return lw.bld.Load(v), vt.Deref()
	case "&":
		// &arr yields the decayed pointer; &scalar yields its slot.
		if id, ok := e.X.(*Ident); ok {
			s := lw.lookup(id.Name)
			if s == nil {
				lw.fail(e.Line, "undefined variable %s", id.Name)
			}
			if s.isArray {
				return lw.decayedBase(s), s.typ.AddrOf()
			}
		}
		addr, t := lw.lvalue(e.X)
		return addr, t.AddrOf()
	}
	panic("minic: bad unary op " + e.Op)
}

func (lw *lowerer) lowerAssign(e *AssignExpr) (ir.Value, CType) {
	addr, lt := lw.lvalue(e.L)
	if e.Op == "=" {
		v, vt := lw.lowerExpr(e.R, lt)
		lw.checkAssignable(e.Line, lt, vt)
		lw.bld.Store(v, addr)
		return v, lt
	}
	// Compound assignment: load, apply, store.
	old := lw.bld.Load(addr)
	r, rt := lw.lowerExpr(e.R, CType{})
	var nv ir.Value
	switch {
	case lt.IsPtr() && e.Op == "+=" && rt.IsInt():
		nv = lw.bld.GEP(old, r)
	case lt.IsPtr() && e.Op == "-=" && rt.IsInt():
		neg := lw.bld.Sub(ir.ConstInt(0), r)
		nv = lw.bld.GEP(old, neg)
	case lt.IsInt() && rt.IsInt():
		op, ok := compoundOps[e.Op]
		if !ok {
			lw.fail(e.Line, "unsupported compound assignment %q", e.Op)
		}
		nv = lw.bld.Bin(op, old, r)
	default:
		lw.fail(e.Line, "invalid %q on %s and %s", e.Op, lt, rt)
	}
	lw.bld.Store(nv, addr)
	return nv, lt
}

func (lw *lowerer) lowerIncDec(e *IncDecExpr) (ir.Value, CType) {
	addr, t := lw.lvalue(e.X)
	old := lw.bld.Load(addr)
	var nv ir.Value
	delta := int64(1)
	if e.Op == "--" {
		delta = -1
	}
	if t.IsPtr() {
		nv = lw.bld.GEP(old, ir.ConstInt(delta))
	} else if delta > 0 {
		nv = lw.bld.Add(old, ir.ConstInt(1))
	} else {
		nv = lw.bld.Sub(old, ir.ConstInt(1))
	}
	lw.bld.Store(nv, addr)
	if e.Post {
		return old, t
	}
	return nv, t
}

func (lw *lowerer) lowerCall(e *CallExpr, want CType) (ir.Value, CType) {
	if e.Name == "malloc" || e.Name == "calloc" {
		if len(e.Args) < 1 {
			lw.fail(e.Line, "%s needs a size argument", e.Name)
		}
		size, st := lw.lowerExpr(e.Args[0], CType{})
		if !st.IsInt() {
			lw.fail(e.Line, "%s size must be int", e.Name)
		}
		if e.Name == "calloc" && len(e.Args) == 2 {
			n, _ := lw.lowerExpr(e.Args[1], CType{})
			size = lw.bld.Mul(size, n)
		}
		rt := want
		if !rt.IsPtr() {
			rt = CType{PtrDepth: 1} // default: int*
		}
		elem := irType(rt.Deref())
		return lw.bld.Malloc(elem, size), rt
	}
	if e.Name == "free" {
		if len(e.Args) != 1 {
			lw.fail(e.Line, "free takes one argument")
		}
		p, pt := lw.lowerExpr(e.Args[0], CType{})
		if !pt.IsPtr() {
			lw.fail(e.Line, "free needs a pointer")
		}
		lw.bld.CallExt("free", ir.Void, p)
		return ir.ConstInt(0), CType{}
	}
	var args []ir.Value
	callee := lw.funcs[e.Name]
	for i, a := range e.Args {
		hint := CType{}
		if callee != nil && i < len(callee.Params) {
			hint = ctypeOf(callee.Params[i].Typ)
		}
		v, _ := lw.lowerExpr(a, hint)
		args = append(args, v)
	}
	if callee != nil {
		if len(args) != len(callee.Params) {
			lw.fail(e.Line, "call to %s with %d args, want %d",
				e.Name, len(args), len(callee.Params))
		}
		return lw.bld.Call(callee, args...), lw.rets[e.Name]
	}
	// Unknown function: external, returning int.
	return lw.bld.CallExt(e.Name, ir.I64, args...), CType{}
}

// ctypeOf maps an IR type back to a CType (for call argument hints).
func ctypeOf(t ir.Type) CType {
	d := 0
	for {
		pt, ok := t.(*ir.PtrType)
		if !ok {
			break
		}
		t = pt.Elem
		d++
	}
	return CType{PtrDepth: d}
}
