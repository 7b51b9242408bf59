// Package minic implements a compiler frontend for a small subset of C
// — the dialect the paper's examples and benchmarks are written in —
// targeting the SSA IR of internal/ir.
//
// The subset covers: the int type and arbitrarily nested pointers to
// it, fixed-size arrays (local and global), functions, if/else, while,
// for, break/continue, return, integer arithmetic, comparisons,
// logical && || ! (in conditions), pointer arithmetic, array indexing,
// address-of, dereference, pre/post increment and decrement, compound
// assignment, and malloc/free. This is exactly what the paper's
// motivating snippets (Figure 1) and the Csmith-style generator need.
//
// Compile parses, lowers to IR (locals as allocas), promotes the
// allocas to SSA with internal/ssa, and verifies the result.
package minic

import (
	"fmt"
	"unicode"
)

// TokKind classifies tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokPunct   // operators and punctuation, Lit holds the spelling
	TokKeyword // int, void, if, else, while, for, return, break, continue
)

// Token is a lexical token with its source line for diagnostics.
type Token struct {
	Kind TokKind
	Lit  string
	Val  int64 // for TokInt
	Line int
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.Lit)
}

// Byte classes of the lexer. Digits and letters come last, so
// class >= clsDigit tests for a byte that continues an identifier.
const (
	clsOther  byte = iota // punctuation or an invalid character
	clsSpace              // ' ', '\t', '\r'
	clsDigit              // '0'..'9'
	clsLetter             // starts or continues an identifier
)

// class maps each byte to its class. A byte is a letter when
// unicode.IsLetter accepts it as a rune, so the Latin-1 letters in
// 0x80–0xFF count as identifier bytes on their own.
var class = func() (t [256]byte) {
	for c := 0; c < 256; c++ {
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			t[c] = clsSpace
		case c >= '0' && c <= '9':
			t[c] = clsDigit
		case unicode.IsLetter(rune(c)) || c == '_':
			t[c] = clsLetter
		}
	}
	return t
}()

// puncts lists the punctuation spellings by first byte, longest first,
// so the lexer is greedy.
var puncts = func() (t [256][]string) {
	for _, p := range []string{
		"<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
		"+=", "-=", "*=", "/=", "%=", "<<", ">>",
		"+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
		"(", ")", "{", "}", "[", "]", ";", ",",
	} {
		t[p[0]] = append(t[p[0]], p)
	}
	return t
}()

// isKeyword reports whether an identifier spelling is reserved.
func isKeyword(w string) bool {
	switch w {
	case "int", "void", "if", "else", "while", "for", "return", "break", "continue", "do":
		return true
	}
	return false
}

// lexer scans src one token per call to next. Comments (// and /* */)
// are skipped. An invalid character sets err, which is sticky: next
// then returns end of file.
type lexer struct {
	src  string
	pos  int
	line int
	err  error
}

func newLexer(src string) lexer { return lexer{src: src, line: 1} }

func (lx *lexer) next() Token {
	src, i, n := lx.src, lx.pos, len(lx.src)
	for i < n {
		c := src[i]
		switch class[c] {
		case clsSpace:
			i++
			continue
		case clsDigit:
			j := i
			var v int64
			for j < n && class[src[j]] == clsDigit {
				v = v*10 + int64(src[j]-'0')
				j++
			}
			lx.pos = j
			return Token{Kind: TokInt, Lit: src[i:j], Val: v, Line: lx.line}
		case clsLetter:
			j := i + 1
			for j < n && class[src[j]] >= clsDigit {
				j++
			}
			lx.pos = j
			word := src[i:j]
			if isKeyword(word) {
				return Token{Kind: TokKeyword, Lit: word, Line: lx.line}
			}
			return Token{Kind: TokIdent, Lit: word, Line: lx.line}
		}
		switch {
		case c == '\n':
			lx.line++
			i++
			continue
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
			continue
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					lx.line++
				}
				i++
			}
			i += 2
			continue
		}
		for _, p := range puncts[c] {
			if i+len(p) <= n && src[i:i+len(p)] == p {
				lx.pos = i + len(p)
				return Token{Kind: TokPunct, Lit: p, Line: lx.line}
			}
		}
		lx.err = fmt.Errorf("minic: line %d: invalid character %q", lx.line, c)
		i = n
	}
	lx.pos = n
	return Token{Kind: TokEOF, Line: lx.line}
}

// Lex tokenizes src. Comments (// and /* */) are skipped. An invalid
// rune produces an error naming its line.
func Lex(src string) ([]Token, error) {
	lx := newLexer(src)
	var toks []Token
	for {
		t := lx.next()
		if lx.err != nil {
			return nil, lx.err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
