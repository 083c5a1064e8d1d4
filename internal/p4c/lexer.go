// Package p4c is the mini-language front end: it parses P4-like pseudocode
// (the same surface syntax ir.Program.Format renders) into the IR. This is
// the repository's analog of the paper's P4→C translation step — programs
// can be written as text, versioned, and loaded by the CLI, and
// Format/Parse round-trip.
package p4c

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // single or multi-char punctuation
)

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

// multi-char operators, longest first.
var operators = []string{
	"&&", "||", "==", "!=", "<=", ">=", "<<", ">>", "->", "..",
	"{", "}", "(", ")", "[", "]", ";", ",", "=", "<", ">", "+", "-", "*",
	"%", "&", "|", "^", "!", ":", ".",
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
	toks []token
}

// lex tokenizes the whole input up front.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.emit(token{kind: tokEOF, line: l.line, col: l.col})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == '"':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case unicode.IsDigit(rune(c)):
			l.lexNumber()
		case unicode.IsLetter(rune(c)) || c == '_':
			l.lexIdent()
		default:
			if !l.lexOperator() {
				return nil, fmt.Errorf("p4c: line %d:%d: unexpected character %q", l.line, l.col, c)
			}
		}
	}
}

func (l *lexer) emit(t token) { l.toks = append(l.toks, t) }

func (l *lexer) advance(n int) {
	for i := 0; i < n && l.pos < len(l.src); i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.advance(1)
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		default:
			return
		}
	}
}

func (l *lexer) lexString() error {
	line, col := l.line, l.col
	l.advance(1) // opening quote
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] != '"' {
		if l.src[l.pos] == '\n' {
			return fmt.Errorf("p4c: line %d:%d: unterminated string", line, col)
		}
		l.advance(1)
	}
	if l.pos >= len(l.src) {
		return fmt.Errorf("p4c: line %d:%d: unterminated string", line, col)
	}
	text := l.src[start:l.pos]
	// Strings have no escapes, and Format quotes names with %q: a string
	// that %q would escape could not round-trip.
	if strconv.Quote(text) != `"`+text+`"` {
		return fmt.Errorf("p4c: line %d:%d: string %q has a character that needs escaping", line, col, text)
	}
	l.advance(1) // closing quote
	l.emit(token{kind: tokString, text: text, line: line, col: col})
	return nil
}

func (l *lexer) lexNumber() {
	line, col := l.line, l.col
	start := l.pos
	// Hex literals.
	if strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X") {
		l.advance(2)
		for l.pos < len(l.src) && isHex(l.src[l.pos]) {
			l.advance(1)
		}
	} else {
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
			l.advance(1)
		}
	}
	l.emit(token{kind: tokNumber, text: l.src[start:l.pos], line: line, col: col})
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func (l *lexer) lexIdent() {
	line, col := l.line, l.col
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			l.advance(1)
		} else {
			break
		}
	}
	l.emit(token{kind: tokIdent, text: l.src[start:l.pos], line: line, col: col})
}

func (l *lexer) lexOperator() bool {
	for _, op := range operators {
		if strings.HasPrefix(l.src[l.pos:], op) {
			line, col := l.line, l.col
			l.advance(len(op))
			l.emit(token{kind: tokPunct, text: op, line: line, col: col})
			return true
		}
	}
	return false
}
