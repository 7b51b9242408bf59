package minic

import (
	"strings"
	"testing"
	"unicode"
)

// TestLexByteClasses: every byte starts an identifier exactly when
// unicode.IsLetter(rune(c)) || c == '_' holds, and continues one when
// that holds or c is a digit, so the Latin-1 letters among 0x80–0xFF
// stay identifier bytes.
func TestLexByteClasses(t *testing.T) {
	for c := 0; c < 256; c++ {
		letter := unicode.IsLetter(rune(c)) || c == '_'
		digit := c >= '0' && c <= '9'
		s := string([]byte{byte(c)})

		toks, err := Lex(s)
		if got := err == nil && len(toks) == 2 && toks[0].Kind == TokIdent && toks[0].Lit == s; got != letter {
			t.Errorf("byte %#02x: lexes alone as an identifier = %v, want %v (toks %v, err %v)", c, got, letter, toks, err)
		}
		toks, err = Lex("a" + s)
		cont := err == nil && len(toks) == 2 && toks[0].Kind == TokIdent && toks[0].Lit == "a"+s
		if want := letter || digit; cont != want {
			t.Errorf("byte %#02x: continues an identifier = %v, want %v (toks %v, err %v)", c, cont, want, toks, err)
		}
	}
}

// TestLexPunctLongestFirst: punctuation is matched greedily.
func TestLexPunctLongestFirst(t *testing.T) {
	toks, err := Lex("<<=<<<=<>>=>>>=>!==&&&|||++++---=")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tok := range toks[:len(toks)-1] {
		got = append(got, tok.Lit)
	}
	want := "<<= << <= < >>= >> >= > != = && & || | ++ ++ -- -="
	if strings.Join(got, " ") != want {
		t.Errorf("tokens %q, want %q", strings.Join(got, " "), want)
	}
}

// TestLexErrorWinsOverParseError: the parser pulls tokens lazily, but
// an invalid character after a parse error is still the reported
// error, as when the whole source was lexed first.
func TestLexErrorWinsOverParseError(t *testing.T) {
	_, err := ParseProgram("int main(void){return 1 + ;} $")
	if err == nil || err.Error() != `minic: line 1: invalid character '$'` {
		t.Errorf("err = %v, want the invalid '$'", err)
	}
	_, err = ParseProgram("int main(void){return 1 + ;}\n// $\n")
	if err == nil || err.Error() != `minic: line 1: expected expression, got ";"` {
		t.Errorf("err = %v, want the parse error", err)
	}
}
