package cfront

import "testing"

// FuzzLexer: the lexer must terminate on every input — either reaching
// EOF or reporting a positioned syntax error — and must make progress on
// every token so a hostile input cannot wedge the front end.
func FuzzLexer(f *testing.F) {
	f.Add("int main(void) { return 0; }\n")
	f.Add(`char *s = "str with \"escape\" and \n";`)
	f.Add("/* unterminated comment")
	f.Add("\"unterminated string")
	f.Add("'c' 'x 0x1f 1e9 .5 ... -> <<= >>= ++ --")
	f.Add("#include <stdio.h>\nint x;\n")
	f.Add("\x00\xff\xfe")
	f.Add("int café = 1;")
	f.Add("int a \u2014 b;")
	f.Add("int \xe9x;")
	f.Fuzz(func(t *testing.T, src string) {
		l := NewLexer("fuzz.c", src)
		// Tokens are at least one byte wide, so len(src)+1 Next calls
		// must reach EOF or an error; more means the lexer is stuck.
		for i := 0; i <= len(src); i++ {
			tok, err := l.Next()
			if err != nil {
				se, ok := err.(*SyntaxError)
				if !ok {
					t.Fatalf("non-syntax error %T: %v", err, err)
				}
				if se.Pos.Line < 1 || se.Pos.Col < 1 {
					t.Fatalf("error without position: %v", err)
				}
				return
			}
			if tok.Kind == EOF {
				return
			}
		}
		t.Fatalf("lexer did not terminate within %d tokens", len(src)+1)
	})
}
