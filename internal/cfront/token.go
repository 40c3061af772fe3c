// Package cfront is a C front end for the const-inference experiment of
// Section 4 of "A Theory of Type Qualifiers" (PLDI 1999): a lexer,
// recursive-descent parser and AST for a realistic subset of ANSI C —
// declarations with full declarator syntax, typedefs, structs, unions,
// enums, the complete expression grammar with casts and sizeof, all
// statements, variadic functions, and the const/volatile qualifiers.
//
// Preprocessor directives are skipped line-wise (the analysis consumes
// preprocessed or preprocessor-free sources, as the paper's experiments
// effectively did).
package cfront

import (
	"fmt"
	"strconv"
)

// Pos is a source position.
type Pos struct {
	File string
	Line int
	Col  int
}

// String formats the position as file:line:col, or line:col when File
// is empty.
func (p Pos) String() string {
	var buf [64]byte
	b := buf[:0]
	if p.File != "" {
		b = append(b, p.File...)
		b = append(b, ':')
	}
	b = strconv.AppendInt(b, int64(p.Line), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(p.Col), 10)
	return string(b)
}

// IsValid reports whether the position was set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// TokKind enumerates C token kinds.
type TokKind int

// Token kinds.
const (
	EOF TokKind = iota
	IDENT
	INTLIT
	FLOATLIT
	CHARLIT
	STRLIT

	// Keywords.
	kwAuto
	kwBreak
	kwCase
	kwChar
	kwConst
	kwContinue
	kwDefault
	kwDo
	kwDouble
	kwElse
	kwEnum
	kwExtern
	kwFloat
	kwFor
	kwGoto
	kwIf
	kwInt
	kwLong
	kwRegister
	kwReturn
	kwShort
	kwSigned
	kwSizeof
	kwStatic
	kwStruct
	kwSwitch
	kwTypedef
	kwUnion
	kwUnsigned
	kwVoid
	kwVolatile
	kwWhile

	// Punctuation and operators.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	SEMI     // ;
	COMMA    // ,
	ELLIPSIS // ...
	DOT      // .
	ARROW    // ->
	INC      // ++
	DEC      // --
	AMP      // &
	STAR     // *
	PLUS     // +
	MINUS    // -
	TILDE    // ~
	NOT      // !
	SLASH    // /
	PERCENT  // %
	SHL      // <<
	SHR      // >>
	LT       // <
	GT       // >
	LE       // <=
	GE       // >=
	EQ       // ==
	NE       // !=
	CARET    // ^
	PIPE     // |
	ANDAND   // &&
	OROR     // ||
	QUESTION // ?
	COLON    // :
	ASSIGN   // =
	MULEQ    // *=
	DIVEQ    // /=
	MODEQ    // %=
	ADDEQ    // +=
	SUBEQ    // -=
	SHLEQ    // <<=
	SHREQ    // >>=
	ANDEQ    // &=
	XOREQ    // ^=
	OREQ     // |=
)

var keywords = map[string]TokKind{
	"auto": kwAuto, "break": kwBreak, "case": kwCase, "char": kwChar,
	"const": kwConst, "continue": kwContinue, "default": kwDefault,
	"do": kwDo, "double": kwDouble, "else": kwElse, "enum": kwEnum,
	"extern": kwExtern, "float": kwFloat, "for": kwFor, "goto": kwGoto,
	"if": kwIf, "int": kwInt, "long": kwLong, "register": kwRegister,
	"return": kwReturn, "short": kwShort, "signed": kwSigned,
	"sizeof": kwSizeof, "static": kwStatic, "struct": kwStruct,
	"switch": kwSwitch, "typedef": kwTypedef, "union": kwUnion,
	"unsigned": kwUnsigned, "void": kwVoid, "volatile": kwVolatile,
	"while": kwWhile,
}

var tokNames = map[TokKind]string{
	EOF: "end of file", IDENT: "identifier", INTLIT: "integer literal",
	FLOATLIT: "float literal", CHARLIT: "character literal", STRLIT: "string literal",
	LPAREN: "'('", RPAREN: "')'", LBRACE: "'{'", RBRACE: "'}'",
	LBRACK: "'['", RBRACK: "']'", SEMI: "';'", COMMA: "','",
	ELLIPSIS: "'...'", DOT: "'.'", ARROW: "'->'", INC: "'++'", DEC: "'--'",
	AMP: "'&'", STAR: "'*'", PLUS: "'+'", MINUS: "'-'", TILDE: "'~'",
	NOT: "'!'", SLASH: "'/'", PERCENT: "'%'", SHL: "'<<'", SHR: "'>>'",
	LT: "'<'", GT: "'>'", LE: "'<='", GE: "'>='", EQ: "'=='", NE: "'!='",
	CARET: "'^'", PIPE: "'|'", ANDAND: "'&&'", OROR: "'||'",
	QUESTION: "'?'", COLON: "':'", ASSIGN: "'='",
	MULEQ: "'*='", DIVEQ: "'/='", MODEQ: "'%='", ADDEQ: "'+='",
	SUBEQ: "'-='", SHLEQ: "'<<='", SHREQ: "'>>='", ANDEQ: "'&='",
	XOREQ: "'^='", OREQ: "'|='",
}

func (k TokKind) String() string {
	if n, ok := tokNames[k]; ok {
		return n
	}
	for text, kw := range keywords {
		if kw == k {
			return "'" + text + "'"
		}
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Pos  Pos
}

// SyntaxError is a lexing or parsing error with a source position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}
