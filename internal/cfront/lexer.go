package cfront

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer tokenizes C source. Preprocessor directives are skipped one line
// at a time (with backslash continuations honored).
type Lexer struct {
	src  string
	file string
	off  int
	line int
	col  int
}

// NewLexer creates a lexer over src; file is used in positions.
func NewLexer(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

func (l *Lexer) pos() Pos { return Pos{File: l.file, Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(i int) byte {
	if l.off+i >= len(l.src) {
		return 0
	}
	return l.src[l.off+i]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skip consumes whitespace, comments, and preprocessor lines. It reports
// an error for unterminated block comments.
func (l *Lexer) skip() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v':
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &SyntaxError{Pos: start, Msg: "unterminated comment"}
			}
		case c == '#' && l.col == l.lineIndentCol():
			// Preprocessor directive: skip to end of line, honoring
			// backslash-newline continuations.
			for l.off < len(l.src) {
				c := l.advance()
				if c == '\\' && l.peek() == '\n' {
					l.advance()
					continue
				}
				if c == '\n' {
					break
				}
			}
		default:
			return nil
		}
	}
	return nil
}

// lineIndentCol returns the column of the first non-blank character on
// the current line if the lexer is positioned at it; directives are
// recognized only at the start of a line (allowing leading whitespace).
func (l *Lexer) lineIndentCol() int {
	// Walk back from the current offset to the line start and check that
	// everything before is whitespace.
	i := l.off - 1
	col := l.col
	for i >= 0 && l.src[i] != '\n' {
		if l.src[i] != ' ' && l.src[i] != '\t' {
			return -1
		}
		i--
	}
	return col
}

// identChar returns the byte length of the identifier character at the
// lexer's offset, or 0 if there is none. Digits only continue an
// identifier. Besides ASCII letters and '_', any Unicode letter may
// appear, as GCC and Clang allow; ASCII never reaches the decoder.
func (l *Lexer) identChar(cont bool) int {
	c := l.peek()
	switch {
	case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		return 1
	case isDigit(c):
		if cont {
			return 1
		}
		return 0
	case c < utf8.RuneSelf:
		return 0
	}
	if r, size := utf8.DecodeRuneInString(l.src[l.off:]); unicode.IsLetter(r) {
		return size
	}
	return 0
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skip(); err != nil {
		return Token{}, err
	}
	p := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: p}, nil
	}
	if n := l.identChar(false); n > 0 {
		start := l.off
		for ; n > 0; n = l.identChar(true) {
			l.advanceN(n)
		}
		text := l.src[start:l.off]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Text: text, Pos: p}, nil
		}
		return Token{Kind: IDENT, Text: text, Pos: p}, nil
	}

	c := l.peek()
	switch {
	case isDigit(c) || c == '.' && isDigit(l.peekAt(1)):
		return l.number(p)

	case c == '\'':
		return l.charLit(p)

	case c == '"':
		return l.strLit(p)
	}

	// Operators and punctuation, longest match first.
	for n := 3; n >= 1; n-- {
		text := l.slice(n)
		if k, ok := punctuators[text]; ok {
			l.advanceN(n)
			return Token{Kind: k, Text: text, Pos: p}, nil
		}
	}
	return Token{}, l.badChar(p)
}

// punctuators maps every operator and punctuation text to its kind.
var punctuators = map[string]TokKind{
	"(": LPAREN, ")": RPAREN, "{": LBRACE, "}": RBRACE,
	"[": LBRACK, "]": RBRACK, ";": SEMI, ",": COMMA, ".": DOT,
	"&": AMP, "*": STAR, "+": PLUS, "-": MINUS, "~": TILDE, "!": NOT,
	"/": SLASH, "%": PERCENT, "<": LT, ">": GT, "^": CARET, "|": PIPE,
	"?": QUESTION, ":": COLON, "=": ASSIGN,
	"->": ARROW, "++": INC, "--": DEC, "<<": SHL, ">>": SHR,
	"<=": LE, ">=": GE, "==": EQ, "!=": NE, "&&": ANDAND, "||": OROR,
	"*=": MULEQ, "/=": DIVEQ, "%=": MODEQ, "+=": ADDEQ, "-=": SUBEQ,
	"&=": ANDEQ, "^=": XOREQ, "|=": OREQ,
	"...": ELLIPSIS, "<<=": SHLEQ, ">>=": SHREQ,
}

// badChar reports the character at the lexer's offset, which starts no
// token. A non-ASCII rune is named by its code point; a byte that is not
// valid UTF-8 is named by its value.
func (l *Lexer) badChar(p Pos) error {
	c := l.peek()
	if c < utf8.RuneSelf {
		return &SyntaxError{Pos: p, Msg: "unexpected character " + strings.TrimSpace(string(rune(c)))}
	}
	r, size := utf8.DecodeRuneInString(l.src[l.off:])
	if r == utf8.RuneError && size <= 1 {
		return &SyntaxError{Pos: p, Msg: fmt.Sprintf("invalid UTF-8 byte 0x%02X", c)}
	}
	return &SyntaxError{Pos: p, Msg: fmt.Sprintf("unexpected character %U %q", r, r)}
}

func (l *Lexer) slice(n int) string {
	if l.off+n > len(l.src) {
		return ""
	}
	return l.src[l.off : l.off+n]
}

func (l *Lexer) advanceN(n int) {
	for i := 0; i < n; i++ {
		l.advance()
	}
}

func (l *Lexer) number(p Pos) (Token, error) {
	start := l.off
	isFloat := false
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advanceN(2)
		for l.off < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
	} else {
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == '.' {
			isFloat = true
			l.advance()
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			next := l.peekAt(1)
			if isDigit(next) || (next == '+' || next == '-') && isDigit(l.peekAt(2)) {
				isFloat = true
				l.advance()
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
				for l.off < len(l.src) && isDigit(l.peek()) {
					l.advance()
				}
			}
		}
	}
	// Suffixes: u, l, ul, ll, f…
	for {
		c := l.peek()
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			l.advance()
			continue
		}
		if isFloat && (c == 'f' || c == 'F') {
			l.advance()
			continue
		}
		break
	}
	kind := INTLIT
	if isFloat {
		kind = FLOATLIT
	}
	return Token{Kind: kind, Text: l.src[start:l.off], Pos: p}, nil
}

func (l *Lexer) charLit(p Pos) (Token, error) {
	start := l.off
	l.advance() // '
	for l.off < len(l.src) {
		c := l.advance()
		if c == '\\' && l.off < len(l.src) {
			l.advance()
			continue
		}
		if c == '\'' {
			return Token{Kind: CHARLIT, Text: l.src[start:l.off], Pos: p}, nil
		}
		if c == '\n' {
			break
		}
	}
	return Token{}, &SyntaxError{Pos: p, Msg: "unterminated character literal"}
}

func (l *Lexer) strLit(p Pos) (Token, error) {
	start := l.off
	l.advance() // "
	for l.off < len(l.src) {
		c := l.advance()
		if c == '\\' && l.off < len(l.src) {
			l.advance()
			continue
		}
		if c == '"' {
			return Token{Kind: STRLIT, Text: l.src[start:l.off], Pos: p}, nil
		}
		if c == '\n' {
			break
		}
	}
	return Token{}, &SyntaxError{Pos: p, Msg: "unterminated string literal"}
}

// Tokenize lexes the entire input, mainly for tests.
func Tokenize(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}
