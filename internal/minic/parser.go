package minic

import (
	"fmt"
)

// maxNesting bounds how deeply statements, parenthesized and indexed
// expressions, call arguments, assignments and unary operators may
// nest. The parser and lowering recurse once per level, and a Go stack
// overflow cannot be recovered, so deeper input is a parse error
// instead. A braced body costs no level beyond the statement that owns
// it, and the arms of an else-if chain share one level: the parser
// loops over them. Real programs nest a few levels deep.
const maxNesting = 1000

// ParseProgram parses a mini-C translation unit into an AST. The
// parser pulls tokens from the lexer one at a time; a lexical error
// anywhere in src wins over a parse error, as if src had been lexed
// in full first.
func ParseProgram(src string) (*Program, error) {
	p := &cparser{lx: newLexer(src)}
	return p.program()
}

type cparser struct {
	lx lexer
	// tok is the current token; ahead is the one after it when
	// hasAhead is set.
	tok      Token
	ahead    Token
	hasAhead bool
	depth    int
}

type parseError struct {
	line int
	msg  string
}

func (e *parseError) Error() string {
	return fmt.Sprintf("minic: line %d: %s", e.line, e.msg)
}

// errLexical aborts the parse on a lexical error; program reports the
// lexer's error instead.
var errLexical = &parseError{msg: "lexical error"}

func (p *cparser) fail(format string, args ...any) {
	panic(&parseError{line: p.tok.Line, msg: fmt.Sprintf(format, args...)})
}

func (p *cparser) scan() Token {
	t := p.lx.next()
	if p.lx.err != nil {
		panic(errLexical)
	}
	return t
}

func (p *cparser) peek2() Token {
	if !p.hasAhead {
		p.ahead, p.hasAhead = p.scan(), true
	}
	return p.ahead
}

// advance moves to the next token; at end of file it stays there.
func (p *cparser) advance() {
	if p.hasAhead {
		p.tok, p.hasAhead = p.ahead, false
		return
	}
	p.tok = p.scan()
}

func (p *cparser) accept(lit string) bool {
	if (p.tok.Kind == TokPunct || p.tok.Kind == TokKeyword) && p.tok.Lit == lit {
		p.advance()
		return true
	}
	return false
}

func (p *cparser) expect(lit string) Token {
	t := p.tok
	if (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Lit == lit {
		p.advance()
		return t
	}
	p.fail("expected %q, got %s", lit, t)
	return Token{}
}

// isPunct reports whether the current token is the punctuation lit.
func (p *cparser) isPunct(lit string) bool {
	return p.tok.Kind == TokPunct && p.tok.Lit == lit
}

// enter counts one more level of nesting and fails past maxNesting;
// leave undoes it.
func (p *cparser) enter() {
	if p.depth++; p.depth > maxNesting {
		p.fail("nesting deeper than %d levels", maxNesting)
	}
}

func (p *cparser) leave() { p.depth-- }

func (p *cparser) program() (prog *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*parseError)
			if !ok {
				panic(r)
			}
			// Drain the lexer: a later invalid character wins.
			for p.lx.err == nil && p.tok.Kind != TokEOF {
				p.tok = p.lx.next()
			}
			if p.lx.err != nil {
				prog, err = nil, p.lx.err
				return
			}
			prog, err = nil, pe
		}
	}()
	p.advance()
	prog = &Program{}
	for p.tok.Kind != TokEOF {
		base := p.baseType()
		typ := base
		for p.accept("*") {
			typ.PtrDepth++
		}
		name := p.ident()
		if p.isPunct("(") {
			prog.Funcs = append(prog.Funcs, p.funcRest(typ, name))
			continue
		}
		decls := []*VarDecl{p.varRest(typ, name)}
		for p.accept(",") {
			t2 := base
			for p.accept("*") {
				t2.PtrDepth++
			}
			decls = append(decls, p.varRest(t2, p.ident()))
		}
		p.expect(";")
		for _, d := range decls {
			if d.Init != nil {
				p.fail("global %s: initializers on globals are not supported", d.Name)
			}
			prog.Globals = append(prog.Globals, d)
		}
	}
	return prog, nil
}

func (p *cparser) ident() string {
	t := p.tok
	if t.Kind != TokIdent {
		p.fail("expected identifier, got %s", t)
	}
	p.advance()
	return t.Lit
}

// baseType parses the "int" or "void" keyword without pointer stars.
func (p *cparser) baseType() CType {
	t := p.tok
	if t.Kind != TokKeyword || (t.Lit != "int" && t.Lit != "void") {
		p.fail("expected type, got %s", t)
	}
	p.advance()
	return CType{Void: t.Lit == "void"}
}

// typeSpec parses "int" {'*'} or "void".
func (p *cparser) typeSpec() CType {
	typ := p.baseType()
	if typ.Void {
		return typ
	}
	for p.accept("*") {
		typ.PtrDepth++
	}
	return typ
}

// declList parses the declarators of a local declaration statement:
// stars, name, optional array suffix and initializer, repeated over
// commas. The trailing ';' is not consumed.
func (p *cparser) declList() *DeclStmt {
	base := p.baseType()
	if base.Void {
		p.fail("void is not a variable type")
	}
	ds := &DeclStmt{}
	for {
		typ := base
		for p.accept("*") {
			typ.PtrDepth++
		}
		ds.Decls = append(ds.Decls, p.varRest(typ, p.ident()))
		if !p.accept(",") {
			return ds
		}
	}
}

// startsType reports whether the next tokens begin a declaration.
func (p *cparser) startsType() bool {
	t := p.tok
	return t.Kind == TokKeyword && (t.Lit == "int" || t.Lit == "void")
}

// varRest parses the remainder of a variable declaration after the
// type and name: optional array suffix and initializer.
func (p *cparser) varRest(typ CType, name string) *VarDecl {
	d := &VarDecl{Name: name, Typ: typ, Line: p.tok.Line}
	if p.accept("[") {
		t := p.tok
		if t.Kind != TokInt {
			p.fail("expected array length, got %s", t)
		}
		p.advance()
		d.ArrayLen = t.Val
		p.expect("]")
	}
	if p.accept("=") {
		d.Init = p.assignExpr()
	}
	return d
}

func (p *cparser) funcRest(ret CType, name string) *FuncDecl {
	fd := &FuncDecl{Name: name, Ret: ret, Line: p.tok.Line}
	p.expect("(")
	if !p.accept(")") {
		if p.tok.Kind == TokKeyword && p.tok.Lit == "void" && p.peek2().Lit == ")" {
			p.advance() // (void)
			p.expect(")")
		} else {
			for {
				pt := p.typeSpec()
				pn := p.ident()
				// "int v[]" means int*.
				if p.accept("[") {
					p.expect("]")
					pt.PtrDepth++
				}
				fd.Params = append(fd.Params, &VarDecl{Name: pn, Typ: pt, Line: p.tok.Line})
				if !p.accept(",") {
					break
				}
			}
			p.expect(")")
		}
	}
	fd.Body = p.block()
	return fd
}

func (p *cparser) block() *BlockStmt {
	p.expect("{")
	b := &BlockStmt{}
	for !p.accept("}") {
		if p.tok.Kind == TokEOF {
			p.fail("unexpected end of file in block")
		}
		b.Stmts = append(b.Stmts, p.stmt())
	}
	return b
}

func (p *cparser) stmt() Stmt {
	p.enter()
	defer p.leave()
	t := p.tok
	switch {
	case t.Lit == "{" && t.Kind == TokPunct:
		return p.block()
	case t.Kind == TokKeyword && t.Lit == "if":
		return p.ifStmt()
	case t.Kind == TokKeyword && t.Lit == "while":
		p.advance()
		p.expect("(")
		cond := p.expr()
		p.expect(")")
		return &WhileStmt{Cond: cond, Body: p.body()}
	case t.Kind == TokKeyword && t.Lit == "do":
		p.advance()
		body := p.body()
		p.expect("while")
		p.expect("(")
		cond := p.expr()
		p.expect(")")
		p.expect(";")
		return &WhileStmt{Cond: cond, Body: body, DoWhile: true}
	case t.Kind == TokKeyword && t.Lit == "for":
		p.advance()
		p.expect("(")
		s := &ForStmt{}
		if !p.accept(";") {
			if p.startsType() {
				s.Init = p.declList()
			} else {
				s.Init = &ExprStmt{X: p.expr()}
			}
			p.expect(";")
		}
		if !p.accept(";") {
			s.Cond = p.expr()
			p.expect(";")
		}
		if !p.accept(")") {
			s.Post = p.expr()
			p.expect(")")
		}
		s.Body = p.body()
		return s
	case t.Kind == TokKeyword && t.Lit == "return":
		p.advance()
		s := &ReturnStmt{Line: t.Line}
		if !p.accept(";") {
			s.X = p.expr()
			p.expect(";")
		}
		return s
	case t.Kind == TokKeyword && t.Lit == "break":
		p.advance()
		p.expect(";")
		return &BreakStmt{Line: t.Line}
	case t.Kind == TokKeyword && t.Lit == "continue":
		p.advance()
		p.expect(";")
		return &ContinueStmt{Line: t.Line}
	case p.startsType():
		ds := p.declList()
		p.expect(";")
		return ds
	case t.Lit == ";" && t.Kind == TokPunct:
		p.advance()
		return &BlockStmt{}
	default:
		x := p.expr()
		p.expect(";")
		return &ExprStmt{X: x}
	}
}

// body parses the body of an if, else, loop or do. The statement that
// owns it was counted, so a braced body costs no level of its own:
// "if (c) { s }" nests as deep as "if (c) s".
func (p *cparser) body() Stmt {
	if p.isPunct("{") {
		return p.block()
	}
	return p.stmt()
}

// ifStmt parses an if statement and its else-if arms in a loop: the
// arms of a chain are siblings in the source, so they share the first
// if's nesting level, however many there are.
func (p *cparser) ifStmt() *IfStmt {
	first := &IfStmt{}
	for s := first; ; {
		p.advance()
		p.expect("(")
		s.Cond = p.expr()
		p.expect(")")
		s.Then = p.body()
		if !p.accept("else") {
			return first
		}
		if p.tok.Kind != TokKeyword || p.tok.Lit != "if" {
			s.Else = p.body()
			return first
		}
		next := &IfStmt{}
		s.Else, s = next, next
	}
}

// expr parses a comma-free expression. Comma expressions appear only
// in for-loop clauses in the paper's examples; we support them there
// by folding into the last expression with side effects preserved.
func (p *cparser) expr() Expr {
	e := p.assignExpr()
	for p.isPunct(",") {
		p.advance()
		r := p.assignExpr()
		// Represent the comma operator as a binary node evaluated for
		// both sides; lowering discards the left value.
		e = &BinExpr{Op: ",", L: e, R: r, Line: r.Pos()}
	}
	return e
}

func (p *cparser) assignExpr() Expr {
	p.enter()
	defer p.leave()
	l := p.binExpr(1)
	t := p.tok
	if t.Kind == TokPunct {
		switch t.Lit {
		case "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=":
			p.advance()
			r := p.assignExpr()
			return &AssignExpr{Op: t.Lit, L: l, R: r, Line: t.Line}
		}
	}
	return l
}

// binLevel is the binary operator precedence table: || < && < | < ^ <
// & < ==,!= < relational < shifts < additive < multiplicative, levels
// 1 to 10. It returns 0 for a spelling that is no binary operator.
func binLevel(op string) int {
	switch op {
	case "||":
		return 1
	case "&&":
		return 2
	case "|":
		return 3
	case "^":
		return 4
	case "&":
		return 5
	case "==", "!=":
		return 6
	case "<", "<=", ">", ">=":
		return 7
	case "<<", ">>":
		return 8
	case "+", "-":
		return 9
	case "*", "/", "%":
		return 10
	}
	return 0
}

// binExpr parses a chain of binary operators of level min or tighter
// by precedence climbing. Operators of one level associate to the
// left and are built in the loop, so a long chain does not recurse.
func (p *cparser) binExpr(min int) Expr {
	l := p.unaryExpr()
	for {
		t := p.tok
		if t.Kind != TokPunct {
			return l
		}
		level := binLevel(t.Lit)
		if level < min {
			return l
		}
		p.advance()
		r := p.binExpr(level + 1)
		l = &BinExpr{Op: t.Lit, L: l, R: r, Line: t.Line}
	}
}

func (p *cparser) unaryExpr() Expr {
	t := p.tok
	if t.Kind == TokPunct {
		switch t.Lit {
		case "-", "!", "*", "&", "~", "+", "++", "--":
			p.advance()
			p.enter()
			x := p.unaryExpr()
			p.leave()
			switch t.Lit {
			case "+":
				return x
			case "++", "--":
				return &IncDecExpr{Op: t.Lit, X: x, Line: t.Line}
			}
			return &UnExpr{Op: t.Lit, X: x, Line: t.Line}
		}
	}
	return p.postfixExpr()
}

func (p *cparser) postfixExpr() Expr {
	e := p.primaryExpr()
	for {
		t := p.tok
		if t.Kind != TokPunct {
			return e
		}
		switch t.Lit {
		case "[":
			p.advance()
			idx := p.expr()
			p.expect("]")
			e = &IndexExpr{X: e, Idx: idx, Line: t.Line}
		case "++", "--":
			p.advance()
			e = &IncDecExpr{Op: t.Lit, X: e, Post: true, Line: t.Line}
		default:
			return e
		}
	}
}

func (p *cparser) primaryExpr() Expr {
	t := p.tok
	switch {
	case t.Kind == TokInt:
		p.advance()
		return &IntLit{Val: t.Val, Line: t.Line}
	case t.Kind == TokIdent:
		p.advance()
		if p.isPunct("(") {
			p.advance()
			c := &CallExpr{Name: t.Lit, Line: t.Line}
			if !p.accept(")") {
				for {
					c.Args = append(c.Args, p.assignExpr())
					if !p.accept(",") {
						break
					}
				}
				p.expect(")")
			}
			return c
		}
		return &Ident{Name: t.Lit, Line: t.Line}
	case t.Kind == TokPunct && t.Lit == "(":
		p.advance()
		e := p.expr()
		p.expect(")")
		return e
	}
	p.fail("expected expression, got %s", t)
	return nil
}
