package ir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads a module from the textual syntax produced by
// Module.String. The syntax allows forward references to values (needed
// for loop-carried phis) and to functions; both are resolved before
// Parse returns. The parsed module is verified structurally.
func Parse(src string) (*Module, error) {
	p := &parser{lex: newLexer(src), mod: NewModule("")}
	if err := p.parseModule(); err != nil {
		return nil, err
	}
	if err := Verify(p.mod); err != nil {
		return nil, fmt.Errorf("ir: parsed module fails verification: %w", err)
	}
	return p.mod, nil
}

// MustParse is Parse that panics on error; for tests and embedded
// corpus programs.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

// token kinds
const (
	tEOF     = iota
	tIdent   // bare identifier / keyword
	tLocal   // %name
	tGlobalT // @name
	tInt     // integer literal
	tStr     // a full quoted literal, quotes included
	tPunct   // single punctuation rune
)

type token struct {
	kind int
	text string
	line int
}

type lexer struct {
	toks []token
	pos  int
}

func newLexer(src string) *lexer {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == ';': // comment to end of line
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '%' || c == '@':
			j := i + 1
			for j < len(src) && isIdentRune(rune(src[j])) {
				j++
			}
			kind := tLocal
			if c == '@' {
				kind = tGlobalT
			}
			toks = append(toks, token{kind, src[i+1 : j], line})
			i = j
		case c == '"':
			// Scan the full quoted literal, honoring backslash
			// escapes (the printer emits %q, so names containing
			// quotes or backslashes arrive escaped). The token keeps
			// the surrounding quotes; the parser unquotes.
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					j++
				}
				j++
			}
			if j < len(src) {
				j++ // closing quote
			}
			toks = append(toks, token{tStr, src[i:j], line})
			i = j
		case c == '-' || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			toks = append(toks, token{tInt, src[i:j], line})
			i = j
		case isIdentRune(rune(c)):
			j := i
			for j < len(src) && isIdentRune(rune(src[j])) {
				j++
			}
			toks = append(toks, token{tIdent, src[i:j], line})
			i = j
		default:
			toks = append(toks, token{tPunct, string(c), line})
			i++
		}
	}
	toks = append(toks, token{tEOF, "", line})
	return &lexer{toks: toks}
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.'
}

func (l *lexer) peek() token { return l.toks[l.pos] }

func (l *lexer) next() token {
	t := l.toks[l.pos]
	if t.kind != tEOF {
		l.pos++
	}
	return t
}

type fixup struct {
	in   *Instr
	arg  int // operand index, or -1 for Cmp, -2 for SubUser
	name string
	line int
}

type callFixup struct {
	in   *Instr
	name string
}

type parser struct {
	lex *lexer
	mod *Module

	fn      *Func
	blocks  map[string]*Block
	values  map[string]Value
	fixups  []fixup
	callFix []callFixup
}

func (p *parser) errf(line int, format string, args ...any) error {
	return fmt.Errorf("ir: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	t := p.lex.next()
	if t.kind != tPunct || t.text != s {
		return p.errf(t.line, "expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *parser) parseModule() error {
	for {
		t := p.lex.peek()
		switch {
		case t.kind == tEOF:
			return p.resolveCalls()
		case t.kind == tIdent && t.text == "module":
			p.lex.next()
			if s := p.lex.peek(); s.kind == tStr {
				name, err := strconv.Unquote(s.text)
				if err != nil {
					return p.errf(s.line, "bad module name literal %s", s.text)
				}
				p.mod.Name = name
				p.lex.next()
			}
		case t.kind == tIdent && t.text == "global":
			p.lex.next()
			name := p.lex.next()
			if name.kind != tGlobalT {
				return p.errf(name.line, "expected @name after global")
			}
			typ, err := p.parseType()
			if err != nil {
				return err
			}
			p.mod.AddGlobal(name.text, typ)
		case t.kind == tIdent && t.text == "func":
			if err := p.parseFunc(); err != nil {
				return err
			}
		default:
			return p.errf(t.line, "unexpected token %q at top level", t.text)
		}
	}
}

func (p *parser) parseType() (Type, error) {
	t := p.lex.next()
	var base Type
	switch {
	case t.kind == tPunct && t.text == "[":
		n := p.lex.next()
		if n.kind != tInt {
			return nil, p.errf(n.line, "expected array length")
		}
		ln, _ := strconv.ParseInt(n.text, 10, 64)
		x := p.lex.next()
		if x.kind != tIdent || x.text != "x" {
			return nil, p.errf(x.line, "expected 'x' in array type")
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		base = ArrayOf(ln, elem)
	case t.kind == tIdent && t.text == "void":
		base = Void
	case t.kind == tIdent && strings.HasPrefix(t.text, "i"):
		bits, err := strconv.Atoi(t.text[1:])
		if err != nil || bits <= 0 || bits > 64 {
			return nil, p.errf(t.line, "bad integer type %q", t.text)
		}
		base = &IntType{Bits: bits}
	default:
		return nil, p.errf(t.line, "expected type, got %q", t.text)
	}
	for p.lex.peek().kind == tPunct && p.lex.peek().text == "*" {
		p.lex.next()
		base = Ptr(base)
	}
	return base, nil
}

func (p *parser) parseFunc() error {
	p.lex.next() // "func"
	name := p.lex.next()
	if name.kind != tGlobalT {
		return p.errf(name.line, "expected @name after func")
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	var pnames []string
	var ptypes []Type
	for {
		t := p.lex.peek()
		if t.kind == tPunct && t.text == ")" {
			p.lex.next()
			break
		}
		if len(pnames) > 0 {
			if err := p.expectPunct(","); err != nil {
				return err
			}
		}
		typ, err := p.parseType()
		if err != nil {
			return err
		}
		pn := p.lex.next()
		if pn.kind != tLocal {
			return p.errf(pn.line, "expected %%name in parameter list")
		}
		pnames = append(pnames, pn.text)
		ptypes = append(ptypes, typ)
	}
	ret, err := p.parseType()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}

	p.fn = p.mod.AddFunc(name.text, ret, pnames, ptypes)
	p.blocks = make(map[string]*Block)
	p.values = make(map[string]Value)
	p.fixups = p.fixups[:0]
	for _, prm := range p.fn.Params {
		p.values[prm.PName] = prm
	}

	var cur *Block
	var layout []*Block
	for {
		t := p.lex.peek()
		if t.kind == tPunct && t.text == "}" {
			p.lex.next()
			break
		}
		if t.kind == tEOF {
			return p.errf(t.line, "unexpected EOF in function body")
		}
		// A label is IDENT ':'.
		if t.kind == tIdent && p.lex.toks[p.lex.pos+1].kind == tPunct &&
			p.lex.toks[p.lex.pos+1].text == ":" {
			p.lex.next()
			p.lex.next()
			cur = p.getBlock(t.text)
			layout = append(layout, cur)
			continue
		}
		if cur == nil {
			return p.errf(t.line, "instruction before first label")
		}
		if err := p.parseInstr(cur); err != nil {
			return err
		}
	}
	// Blocks were created on first reference; restore the source's
	// layout order (and reject references to labels never defined).
	if len(layout) != len(p.fn.Blocks) {
		for _, b := range p.fn.Blocks {
			found := false
			for _, l := range layout {
				if l == b {
					found = true
					break
				}
			}
			if !found {
				return p.errf(p.lex.peek().line, "block %s referenced but never defined", b.Name())
			}
		}
	}
	p.fn.Blocks = layout
	// Resolve forward value references.
	for _, fx := range p.fixups {
		v, ok := p.values[fx.name]
		if !ok {
			return p.errf(fx.line, "undefined value %%%s", fx.name)
		}
		switch fx.arg {
		case -1:
			in, ok := v.(*Instr)
			if !ok || in.Op != OpICmp {
				return p.errf(fx.line, "sigma cmp %%%s is not an icmp", fx.name)
			}
			fx.in.extOrNew().ref = in
		case -2:
			in, ok := v.(*Instr)
			if !ok {
				return p.errf(fx.line, "copy sub user %%%s is not an instruction", fx.name)
			}
			fx.in.extOrNew().ref = in
		default:
			fx.in.Args[fx.arg] = v
		}
	}
	// Stored values come syntactically before the pointer operand, so
	// constants (and undefs) were parsed with an i64 hint. Now that
	// every pointer type is resolved, retype them to the pointee so
	// the verifier's store type-agreement check sees the real type. A
	// 0 stored into a pointer cell is the null-pointer idiom.
	for _, b := range p.fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != OpStore {
				continue
			}
			pt, ok := typeOf(in.Args[1]).(*PtrType)
			if !ok {
				continue
			}
			switch v := in.Args[0].(type) {
			case *Const:
				switch pt.Elem.(type) {
				case *IntType:
					in.Args[0] = &Const{Val: v.Val, Typ: pt.Elem}
				case *PtrType:
					if v.Val == 0 {
						in.Args[0] = &Const{Val: 0, Typ: pt.Elem}
					}
				}
			case *Undef:
				in.Args[0] = &Undef{Typ: pt.Elem}
			}
		}
	}
	p.fn.RecomputeCFG()
	return nil
}

func (p *parser) getBlock(name string) *Block {
	if b, ok := p.blocks[name]; ok {
		return b
	}
	b := p.fn.NewBlock(name)
	p.blocks[name] = b
	return b
}

// operand parses a value reference; when the value is not yet defined,
// it records a fixup against in.Args[idx] and returns a placeholder.
func (p *parser) operand(in *Instr, idx int, hint Type) (Value, error) {
	t := p.lex.next()
	switch t.kind {
	case tInt:
		v, _ := strconv.ParseInt(t.text, 10, 64)
		typ := hint
		if typ == nil {
			typ = I64
		}
		return &Const{Val: v, Typ: typ}, nil
	case tLocal:
		if v, ok := p.values[t.text]; ok {
			return v, nil
		}
		p.fixups = append(p.fixups, fixup{in: in, arg: idx, name: t.text, line: t.line})
		return (*Instr)(nil), nil // placeholder; patched later
	case tGlobalT:
		if g := p.mod.GlobalByName(t.text); g != nil {
			return g, nil
		}
		return nil, p.errf(t.line, "undefined global @%s", t.text)
	case tIdent:
		if t.text == "undef" {
			typ := hint
			if typ == nil {
				typ = I64
			}
			return &Undef{Typ: typ}, nil
		}
	}
	return nil, p.errf(t.line, "expected operand, got %q", t.text)
}

func (p *parser) define(name string, in *Instr) {
	in.SetName(name)
	p.values[name] = in
}

func (p *parser) parseInstr(b *Block) error {
	t := p.lex.next()
	resName := ""
	if t.kind == tLocal {
		resName = t.text
		if err := p.expectPunct("="); err != nil {
			return err
		}
		t = p.lex.next()
	}
	if t.kind != tIdent {
		return p.errf(t.line, "expected opcode, got %q", t.text)
	}
	in := &Instr{Typ: Void}
	emit := func() {
		if resName != "" {
			p.define(resName, in)
		}
		b.Append(in)
	}
	comma := func() error { return p.expectPunct(",") }

	switch t.text {
	case "alloca":
		elem, err := p.parseType()
		if err != nil {
			return err
		}
		if err := comma(); err != nil {
			return err
		}
		n := p.lex.next()
		if n.kind != tInt {
			return p.errf(n.line, "expected alloca element count")
		}
		cnt, _ := strconv.ParseInt(n.text, 10, 64)
		in = NewAlloca(elem, cnt)
		emit()
	case "malloc":
		elem, err := p.parseType()
		if err != nil {
			return err
		}
		if err := comma(); err != nil {
			return err
		}
		in.Op, in.Typ = OpMalloc, Ptr(elem)
		in.Args = make([]Value, 1)
		a, err := p.operand(in, 0, I64)
		if err != nil {
			return err
		}
		in.Args[0] = a
		emit()
	case "load":
		in.Op = OpLoad
		in.Args = make([]Value, 1)
		a, err := p.operand(in, 0, nil)
		if err != nil {
			return err
		}
		in.Args[0] = a
		if pt, ok := typeOf(a).(*PtrType); ok {
			in.Typ = pt.Elem
		} else {
			return p.errf(t.line, "load pointer operand must be defined before use")
		}
		emit()
	case "store":
		in.Op = OpStore
		in.Args = make([]Value, 2)
		// Parse the pointer first conceptually: the stored value's
		// constant type may depend on it, but syntactically value
		// comes first; use I64 as the constant hint.
		v0, err := p.operand(in, 0, I64)
		if err != nil {
			return err
		}
		if err := comma(); err != nil {
			return err
		}
		v1, err := p.operand(in, 1, nil)
		if err != nil {
			return err
		}
		in.Args[0], in.Args[1] = v0, v1
		emit()
	case "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr":
		ops := map[string]Op{
			"add": OpAdd, "sub": OpSub, "mul": OpMul, "div": OpDiv,
			"rem": OpRem, "and": OpAnd, "or": OpOr, "xor": OpXor,
			"shl": OpShl, "shr": OpShr,
		}
		in.Op = ops[t.text]
		in.Args = make([]Value, 2)
		a, err := p.operand(in, 0, nil)
		if err != nil {
			return err
		}
		if err := comma(); err != nil {
			return err
		}
		bnd, err := p.operand(in, 1, typeOf(a))
		if err != nil {
			return err
		}
		in.Args[0], in.Args[1] = a, bnd
		in.Typ = typeOf(a)
		if in.Typ == nil {
			in.Typ = typeOf(bnd)
		}
		if in.Typ == nil {
			in.Typ = I64
		}
		emit()
	case "icmp":
		pn := p.lex.next()
		preds := map[string]CmpPred{
			"eq": CmpEQ, "ne": CmpNE, "lt": CmpLT, "le": CmpLE,
			"gt": CmpGT, "ge": CmpGE,
		}
		pred, ok := preds[pn.text]
		if !ok {
			return p.errf(pn.line, "bad icmp predicate %q", pn.text)
		}
		in.Op, in.Pred, in.Typ = OpICmp, pred, I1
		in.Args = make([]Value, 2)
		a, err := p.operand(in, 0, nil)
		if err != nil {
			return err
		}
		if err := comma(); err != nil {
			return err
		}
		bnd, err := p.operand(in, 1, typeOf(a))
		if err != nil {
			return err
		}
		in.Args[0], in.Args[1] = a, bnd
		emit()
	case "gep":
		in.Op = OpGEP
		in.Args = make([]Value, 2)
		a, err := p.operand(in, 0, nil)
		if err != nil {
			return err
		}
		if err := comma(); err != nil {
			return err
		}
		idx, err := p.operand(in, 1, I64)
		if err != nil {
			return err
		}
		in.Args[0], in.Args[1] = a, idx
		if bt := typeOf(a); bt != nil {
			in.Typ = GEPResultType(bt)
		}
		if in.Typ == nil || Equal(in.Typ, Void) {
			return p.errf(t.line, "gep base must be a pointer defined before use")
		}
		emit()
	case "phi":
		typ, err := p.parseType()
		if err != nil {
			return err
		}
		in.Op, in.Typ = OpPhi, typ
		for {
			if err := p.expectPunct("["); err != nil {
				return err
			}
			in.Args = append(in.Args, nil)
			v, err := p.operand(in, len(in.Args)-1, typ)
			if err != nil {
				return err
			}
			in.Args[len(in.Args)-1] = v
			if err := comma(); err != nil {
				return err
			}
			lbl := p.lex.next()
			if lbl.kind != tIdent {
				return p.errf(lbl.line, "expected block label in phi")
			}
			ext := in.extOrNew()
			ext.blocks = append(ext.blocks, p.getBlock(lbl.text))
			if err := p.expectPunct("]"); err != nil {
				return err
			}
			if nx := p.lex.peek(); nx.kind == tPunct && nx.text == "," {
				p.lex.next()
				continue
			}
			break
		}
		emit()
	case "sigma":
		in.Op = OpSigma
		in.Args = make([]Value, 1)
		a, err := p.operand(in, 0, nil)
		if err != nil {
			return err
		}
		in.Args[0] = a
		in.Typ = typeOf(a)
		if in.Typ == nil {
			return p.errf(t.line, "sigma source must be defined before use")
		}
		if err := comma(); err != nil {
			return err
		}
		kw := p.lex.next()
		if kw.kind != tIdent || kw.text != "cmp" {
			return p.errf(kw.line, "expected 'cmp' in sigma")
		}
		cmpTok := p.lex.next()
		if cmpTok.kind != tLocal {
			return p.errf(cmpTok.line, "expected %%cmp in sigma")
		}
		if v, ok := p.values[cmpTok.text]; ok {
			ci, ok := v.(*Instr)
			if !ok || ci.Op != OpICmp {
				return p.errf(cmpTok.line, "sigma cmp is not an icmp")
			}
			in.extOrNew().ref = ci
		} else {
			p.fixups = append(p.fixups, fixup{in: in, arg: -1, name: cmpTok.text, line: cmpTok.line})
		}
		if err := comma(); err != nil {
			return err
		}
		br := p.lex.next()
		switch br.text {
		case "true":
			in.OnTrue = true
		case "false":
			in.OnTrue = false
		default:
			return p.errf(br.line, "expected true/false in sigma")
		}
		if nx := p.lex.peek(); nx.kind == tPunct && nx.text == "," {
			p.lex.next()
			side := p.lex.next()
			switch side.text {
			case "left":
				in.CmpSide = 0
			case "right":
				in.CmpSide = 1
			default:
				return p.errf(side.line, "expected left/right in sigma")
			}
		}
		emit()
	case "copy":
		in.Op = OpCopy
		in.Args = make([]Value, 1)
		a, err := p.operand(in, 0, nil)
		if err != nil {
			return err
		}
		in.Args[0] = a
		in.Typ = typeOf(a)
		if in.Typ == nil {
			return p.errf(t.line, "copy source must be defined before use")
		}
		if nx := p.lex.peek(); nx.kind == tPunct && nx.text == "," {
			p.lex.next()
			kw := p.lex.next()
			if kw.kind != tIdent || kw.text != "sub" {
				return p.errf(kw.line, "expected 'sub' in copy")
			}
			st := p.lex.next()
			if st.kind != tLocal {
				return p.errf(st.line, "expected %%sub in copy")
			}
			if v, ok := p.values[st.text]; ok {
				sub, ok := v.(*Instr)
				if !ok {
					return p.errf(st.line, "copy sub user %%%s is not an instruction", st.text)
				}
				in.extOrNew().ref = sub
			} else {
				p.fixups = append(p.fixups, fixup{in: in, arg: -2, name: st.text, line: st.line})
			}
		}
		emit()
	case "call":
		ret, err := p.parseType()
		if err != nil {
			return err
		}
		callee := p.lex.next()
		if callee.kind != tGlobalT {
			return p.errf(callee.line, "expected @callee in call")
		}
		in.Op, in.Typ, in.ext = OpCall, ret, &payload{calleeName: callee.text}
		if err := p.expectPunct("("); err != nil {
			return err
		}
		for {
			nx := p.lex.peek()
			if nx.kind == tPunct && nx.text == ")" {
				p.lex.next()
				break
			}
			if len(in.Args) > 0 {
				if err := comma(); err != nil {
					return err
				}
			}
			in.Args = append(in.Args, nil)
			v, err := p.operand(in, len(in.Args)-1, I64)
			if err != nil {
				return err
			}
			in.Args[len(in.Args)-1] = v
		}
		p.callFix = append(p.callFix, callFixup{in: in, name: callee.text})
		emit()
	case "br":
		in.Op = OpBr
		in.Args = make([]Value, 1)
		c, err := p.operand(in, 0, I1)
		if err != nil {
			return err
		}
		in.Args[0] = c
		if err := comma(); err != nil {
			return err
		}
		l1 := p.lex.next()
		if err := comma(); err != nil {
			return err
		}
		l2 := p.lex.next()
		if l1.kind != tIdent || l2.kind != tIdent {
			return p.errf(l1.line, "expected block labels in br")
		}
		in.Succs = []*Block{p.getBlock(l1.text), p.getBlock(l2.text)}
		emit()
	case "jmp":
		in.Op = OpJmp
		l := p.lex.next()
		if l.kind != tIdent {
			return p.errf(l.line, "expected block label in jmp")
		}
		in.Succs = []*Block{p.getBlock(l.text)}
		emit()
	case "ret":
		in.Op = OpRet
		nx := p.lex.peek()
		if nx.kind == tLocal || nx.kind == tInt || nx.kind == tGlobalT {
			in.Args = make([]Value, 1)
			v, err := p.operand(in, 0, p.fn.RetTyp)
			if err != nil {
				return err
			}
			in.Args[0] = v
		}
		emit()
	default:
		return p.errf(t.line, "unknown opcode %q", t.text)
	}
	// Optional source-location suffix: "!line N".
	if nx := p.lex.peek(); nx.kind == tPunct && nx.text == "!" {
		p.lex.next()
		kw := p.lex.next()
		if kw.kind != tIdent || kw.text != "line" {
			return p.errf(kw.line, "expected 'line' after '!', got %q", kw.text)
		}
		n := p.lex.next()
		ln, err := strconv.ParseInt(n.text, 10, 32)
		if n.kind != tInt || err != nil || ln < 0 {
			return p.errf(n.line, "expected a line number in [0, %d] after !line, got %q", math.MaxInt32, n.text)
		}
		in.Line = int32(ln)
	}
	return nil
}

// typeOf returns v's type, or nil for an unresolved placeholder.
func typeOf(v Value) Type {
	if in, ok := v.(*Instr); ok && in == nil {
		return nil
	}
	if v == nil {
		return nil
	}
	return v.Type()
}

func (p *parser) resolveCalls() error {
	for _, cf := range p.callFix {
		if f := p.mod.FuncByName(cf.name); f != nil {
			cf.in.ext.callee = f
		}
	}
	return nil
}
