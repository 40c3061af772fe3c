package cfront

import (
	"fmt"
	"testing"
)

// allTokensSrc holds every punctuator, keywords, identifiers, each kind
// of literal, both comment forms and a directive line.
const allTokensSrc = `#include <stdio.h>
#define N 10 \
	+ 1
( ) { } [ ] ; , ... . -> ++ -- & * + - ~ ! / % << >> < > <= >= == != ^ |
&& || ? : = *= /= %= += -= <<= >>= &= ^= |=
// a line comment
static const unsigned long counter_1 = 0x1F; /* a block
comment */ double d = 3.14e-2; float f = .5f; char c = '\n';
char *s = "str \"q\"";
int main(void) { return counter_1 > 10UL ? s[0] : c; }
`

func TestLexerNextAllocs(t *testing.T) {
	seen := map[TokKind]bool{}
	toks, err := Tokenize("t.c", allTokensSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		seen[tok.Kind] = true
	}
	for k := LPAREN; k <= OREQ; k++ {
		if !seen[k] {
			t.Errorf("source lacks punctuator %v", k)
		}
	}
	for _, k := range []TokKind{IDENT, INTLIT, FLOATLIT, CHARLIT, STRLIT, kwStatic, kwReturn} {
		if !seen[k] {
			t.Errorf("source lacks %v", k)
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		l := NewLexer("t.c", allTokensSrc)
		for {
			tok, err := l.Next()
			if err != nil {
				panic(err)
			}
			if tok.Kind == EOF {
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("lexing allocates %v times per run, want 0", allocs)
	}
}

func TestLexerNonASCII(t *testing.T) {
	toks, err := Tokenize("t.c", "int café = 1; int Δx2;")
	if err != nil {
		t.Fatal(err)
	}
	var idents []string
	for _, tok := range toks {
		if tok.Kind == IDENT {
			idents = append(idents, tok.Text)
		}
	}
	if fmt.Sprint(idents) != "[café Δx2]" {
		t.Errorf("identifiers = %q, want [café Δx2]", idents)
	}
	// Columns count bytes: é is two.
	if p := toks[2].Pos; p.Line != 1 || p.Col != 11 {
		t.Errorf("'=' at %v, want 1:11", p)
	}

	for _, tc := range []struct{ src, want string }{
		{"int a — b;", "t.c:1:7: unexpected character U+2014 '—'"},
		{"int a = 1;\n  x\xe9;", "t.c:2:4: invalid UTF-8 byte 0xE9"},
		{"int \xff;", "t.c:1:5: invalid UTF-8 byte 0xFF"},
		{"int a @ b;", "t.c:1:7: unexpected character @"},
	} {
		_, err := Tokenize("t.c", tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Tokenize(%q) error = %v, want %s", tc.src, err, tc.want)
		}
	}
}

func TestPosString(t *testing.T) {
	for _, p := range []Pos{
		{},
		{Line: 1, Col: 1},
		{Line: 12345, Col: 678},
		{File: "a.c", Line: 3, Col: 9},
		{File: "dir/some file.c", Line: 100000, Col: 42},
		{File: string(make([]byte, 100)), Line: 7, Col: 1234567},
		{File: "neg.c", Line: -1, Col: -20},
	} {
		want := fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
		if p.File == "" {
			want = fmt.Sprintf("%d:%d", p.Line, p.Col)
		}
		if got := p.String(); got != want {
			t.Errorf("Pos%+v.String() = %q, want %q", p, got, want)
		}
	}
}
