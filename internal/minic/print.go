// AST printer: renders a Program back into mini-C source accepted by
// ParseProgram. The delta-debugging reducer (internal/reduce) works by
// deleting AST statements and reprinting, so the printer must be a
// right inverse of the parser: print(parse(src)) reparses to the same
// AST. Expressions carry only the parentheses their tree needs, and
// bodies are braced (a braced body costs the parser no nesting level),
// so the printed program nests no deeper than any source that parses
// to it and stays within the parser's nesting bound.
package minic

import (
	"fmt"
	"strconv"
	"strings"
)

// PrintProgram renders prog as compilable mini-C source.
func PrintProgram(prog *Program) string {
	pr := &printer{}
	for _, g := range prog.Globals {
		pr.line("%s;", declString(g))
	}
	if len(prog.Globals) > 0 {
		pr.line("")
	}
	for i, f := range prog.Funcs {
		if i > 0 {
			pr.line("")
		}
		pr.printFunc(f)
	}
	return pr.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (pr *printer) line(format string, args ...any) {
	if format != "" {
		pr.sb.WriteString(strings.Repeat("  ", pr.indent))
		fmt.Fprintf(&pr.sb, format, args...)
	}
	pr.sb.WriteByte('\n')
}

// declString renders one declarator: stars bind to the name, the array
// suffix and initializer follow.
func declString(d *VarDecl) string {
	s := "int " + strings.Repeat("*", d.Typ.PtrDepth) + d.Name
	if d.ArrayLen > 0 {
		s += fmt.Sprintf("[%d]", d.ArrayLen)
	}
	if d.Init != nil {
		s += " = " + exprString(d.Init, precAssign)
	}
	return s
}

func (pr *printer) printFunc(f *FuncDecl) {
	params := "void"
	if len(f.Params) > 0 {
		ps := make([]string, len(f.Params))
		for i, p := range f.Params {
			ps[i] = fmt.Sprintf("int %s%s", strings.Repeat("*", p.Typ.PtrDepth), p.Name)
		}
		params = strings.Join(ps, ", ")
	}
	ret := f.Ret.String()
	pr.line("%s %s(%s) {", ret, f.Name, params)
	pr.indent++
	for _, s := range f.Body.Stmts {
		pr.printStmt(s)
	}
	pr.indent--
	pr.line("}")
}

func (pr *printer) printStmt(s Stmt) {
	switch s := s.(type) {
	case *BlockStmt:
		pr.line("{")
		pr.indent++
		for _, inner := range s.Stmts {
			pr.printStmt(inner)
		}
		pr.indent--
		pr.line("}")
	case *DeclStmt:
		ds := make([]string, len(s.Decls))
		for i, d := range s.Decls {
			part := declString(d)
			if i > 0 {
				part = strings.TrimPrefix(part, "int ")
			}
			ds[i] = part
		}
		pr.line("%s;", strings.Join(ds, ", "))
	case *ExprStmt:
		pr.line("%s;", ExprString(s.X))
	case *IfStmt:
		pr.line("if (%s)", ExprString(s.Cond))
		pr.printBody(s.Then)
		// An else-if chain prints flat, as the parser reads it.
		for s.Else != nil {
			elif, ok := s.Else.(*IfStmt)
			if !ok {
				pr.line("else")
				pr.printBody(s.Else)
				break
			}
			pr.line("else if (%s)", ExprString(elif.Cond))
			pr.printBody(elif.Then)
			s = elif
		}
	case *WhileStmt:
		if s.DoWhile {
			pr.line("do")
			pr.printBody(s.Body)
			pr.line("while (%s);", ExprString(s.Cond))
			return
		}
		pr.line("while (%s)", ExprString(s.Cond))
		pr.printBody(s.Body)
	case *ForStmt:
		init, cond, post := "", "", ""
		switch is := s.Init.(type) {
		case *DeclStmt:
			ds := make([]string, len(is.Decls))
			for i, d := range is.Decls {
				part := declString(d)
				if i > 0 {
					part = strings.TrimPrefix(part, "int ")
				}
				ds[i] = part
			}
			init = strings.Join(ds, ", ")
		case *ExprStmt:
			init = ExprString(is.X)
		}
		if s.Cond != nil {
			cond = ExprString(s.Cond)
		}
		if s.Post != nil {
			post = ExprString(s.Post)
		}
		pr.line("for (%s; %s; %s)", init, cond, post)
		pr.printBody(s.Body)
	case *ReturnStmt:
		if s.X != nil {
			pr.line("return %s;", ExprString(s.X))
			return
		}
		pr.line("return;")
	case *BreakStmt:
		pr.line("break;")
	case *ContinueStmt:
		pr.line("continue;")
	default:
		pr.line("/* unknown stmt */;")
	}
}

// printBody prints a statement as the body of a control construct,
// always braced so dangling-else never changes meaning.
func (pr *printer) printBody(s Stmt) {
	if b, ok := s.(*BlockStmt); ok {
		pr.printStmt(b)
		return
	}
	pr.line("{")
	pr.indent++
	pr.printStmt(s)
	pr.indent--
	pr.line("}")
}

// Expression precedence, loosest first: the comma, assignment, the
// binary levels of binLevel one up, unary operators, then postfix
// operators and primaries.
const (
	precComma   = 0
	precAssign  = 1
	precUnary   = 12
	precPostfix = 13
)

func precOf(e Expr) int {
	switch e := e.(type) {
	case *BinExpr:
		if e.Op == "," {
			return precComma
		}
		return 1 + binLevel(e.Op)
	case *AssignExpr:
		return precAssign
	case *UnExpr:
		return precUnary
	case *IncDecExpr:
		if !e.Post {
			return precUnary
		}
	}
	return precPostfix
}

// ExprString renders an expression with the parentheses its tree
// needs and no others.
func ExprString(e Expr) string {
	return exprString(e, precComma)
}

// exprString renders e where the grammar admits only expressions of
// precedence min or tighter.
func exprString(e Expr, min int) string {
	var sb strings.Builder
	writeExpr(&sb, e, min)
	return sb.String()
}

// writeExpr writes e where the grammar admits only expressions of
// precedence min or tighter, parenthesizing it when it is looser.
// Operators of one binary level associate to the left and assignment
// to the right, so a chain of either prints flat.
func writeExpr(sb *strings.Builder, e Expr, min int) {
	prec := precOf(e)
	if prec < min {
		sb.WriteByte('(')
	}
	switch e := e.(type) {
	case *IntLit:
		// Unsigned: a literal that wrapped negative reparses to the
		// same value.
		sb.WriteString(strconv.FormatUint(uint64(e.Val), 10))
	case *Ident:
		sb.WriteString(e.Name)
	case *BinExpr:
		writeExpr(sb, e.L, prec)
		if e.Op == "," {
			sb.WriteString(", ")
		} else {
			sb.WriteString(" " + e.Op + " ")
		}
		writeExpr(sb, e.R, prec+1)
	case *AssignExpr:
		writeExpr(sb, e.L, precAssign+1)
		sb.WriteString(" " + e.Op + " ")
		writeExpr(sb, e.R, precAssign)
	case *UnExpr:
		writePrefix(sb, e.Op, e.X)
	case *IncDecExpr:
		if e.Post {
			writeExpr(sb, e.X, precPostfix)
			sb.WriteString(e.Op)
		} else {
			writePrefix(sb, e.Op, e.X)
		}
	case *IndexExpr:
		writeExpr(sb, e.X, precPostfix)
		sb.WriteByte('[')
		writeExpr(sb, e.Idx, precComma)
		sb.WriteByte(']')
	case *CallExpr:
		sb.WriteString(e.Name)
		sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a, precAssign)
		}
		sb.WriteByte(')')
	default:
		sb.WriteString("/*?*/0")
	}
	if prec < min {
		sb.WriteByte(')')
	}
}

// writePrefix writes a prefix operator and its operand, with a space
// when the operand starts with an operator too, so that "- -x" does
// not lex as "--x".
func writePrefix(sb *strings.Builder, op string, x Expr) {
	sb.WriteString(op)
	if precOf(x) == precUnary {
		sb.WriteByte(' ')
	}
	writeExpr(sb, x, precUnary)
}
