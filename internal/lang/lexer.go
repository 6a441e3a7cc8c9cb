package lang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// lexer tokenizes MojC source.
type lexer struct {
	src  []rune
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: []rune(src), line: 1, col: 1}
}

func (lx *lexer) peek() rune {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) peek2() rune {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *lexer) advance() rune {
	r := lx.src[lx.pos]
	lx.pos++
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		r := lx.peek()
		switch {
		case unicode.IsSpace(r):
			lx.advance()
		case r == '/' && lx.peek2() == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case r == '/' && lx.peek2() == '*':
			line, col := lx.line, lx.col
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return errf(line, col, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// punctuations is the operator table; two-rune operators come first so
// the first match is the longest.
var punctuations = []string{
	"&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=",
	"+", "-", "*", "/", "%", "!", "<", ">", "=", "(", ")", "{", "}",
	"[", "]", ",", ";", "&", "|", "^",
}

// punct returns the first entry of punctuations that matches at lx.pos,
// or "" when none does. Entries are one or two ASCII characters, so it
// compares at most two runes per entry and returns the table's own
// string: a punctuation token costs no allocation and never touches the
// rest of the source.
func (lx *lexer) punct() string {
	r, next := lx.peek(), lx.peek2()
	for _, p := range punctuations {
		if rune(p[0]) == r && (len(p) == 1 || rune(p[1]) == next) {
			return p
		}
	}
	return ""
}

// lex tokenizes the whole input.
func lex(src string) ([]Token, error) {
	lx := newLexer(src)
	// MojC runs at about four runes per token; sizing for that up front
	// halves what the token slice allocates while it grows.
	toks := make([]Token, 0, len(lx.src)/4+1)
	for {
		if err := lx.skipSpaceAndComments(); err != nil {
			return nil, err
		}
		line, col := lx.line, lx.col
		if lx.pos >= len(lx.src) {
			toks = append(toks, Token{Kind: TokEOF, Line: line, Col: col})
			return toks, nil
		}
		r := lx.peek()
		switch {
		case unicode.IsLetter(r) || r == '_':
			start := lx.pos
			for lx.pos < len(lx.src) && (unicode.IsLetter(lx.peek()) || unicode.IsDigit(lx.peek()) || lx.peek() == '_') {
				lx.advance()
			}
			text := string(lx.src[start:lx.pos])
			kind := TokIdent
			if keywords[text] {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Text: text, Line: line, Col: col})

		case unicode.IsDigit(r) || (r == '.' && unicode.IsDigit(lx.peek2())):
			var b strings.Builder
			isFloat := false
			for lx.pos < len(lx.src) {
				c := lx.peek()
				if unicode.IsDigit(c) {
					b.WriteRune(lx.advance())
				} else if c == '.' && !isFloat && unicode.IsDigit(lx.peek2()) {
					isFloat = true
					b.WriteRune(lx.advance())
				} else if (c == 'e' || c == 'E') && b.Len() > 0 {
					nx := lx.peek2()
					if unicode.IsDigit(nx) || nx == '+' || nx == '-' {
						isFloat = true
						b.WriteRune(lx.advance()) // e
						if lx.peek() == '+' || lx.peek() == '-' {
							b.WriteRune(lx.advance())
						}
					} else {
						break
					}
				} else {
					break
				}
			}
			text := b.String()
			if isFloat {
				f, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return nil, errf(line, col, "bad float literal %q: %v", text, err)
				}
				toks = append(toks, Token{Kind: TokFloat, Text: text, FloatVal: f, Line: line, Col: col})
			} else {
				v, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return nil, errf(line, col, "bad integer literal %q: %v", text, err)
				}
				toks = append(toks, Token{Kind: TokInt, Text: text, IntVal: v, Line: line, Col: col})
			}

		case r == '"':
			lx.advance()
			var b strings.Builder
			for {
				if lx.pos >= len(lx.src) {
					return nil, errf(line, col, "unterminated string literal")
				}
				c := lx.advance()
				if c == '"' {
					break
				}
				if c == '\\' {
					if lx.pos >= len(lx.src) {
						return nil, errf(line, col, "unterminated escape")
					}
					e := lx.advance()
					switch e {
					case 'n':
						b.WriteRune('\n')
					case 't':
						b.WriteRune('\t')
					case '\\':
						b.WriteRune('\\')
					case '"':
						b.WriteRune('"')
					case '0':
						b.WriteRune(0)
					default:
						return nil, errf(line, col, "unknown escape \\%c", e)
					}
					continue
				}
				b.WriteRune(c)
			}
			toks = append(toks, Token{Kind: TokString, Text: b.String(), StrVal: b.String(), Line: line, Col: col})

		case r == '\'':
			lx.advance()
			if lx.pos >= len(lx.src) {
				return nil, errf(line, col, "unterminated char literal")
			}
			c := lx.advance()
			if c == '\\' {
				if lx.pos >= len(lx.src) {
					return nil, errf(line, col, "unterminated char literal")
				}
				e := lx.advance()
				switch e {
				case 'n':
					c = '\n'
				case 't':
					c = '\t'
				case '\\':
					c = '\\'
				case '\'':
					c = '\''
				case '0':
					c = 0
				default:
					return nil, errf(line, col, "unknown escape \\%c", e)
				}
			}
			if lx.pos >= len(lx.src) || lx.advance() != '\'' {
				return nil, errf(line, col, "unterminated char literal")
			}
			toks = append(toks, Token{Kind: TokChar, Text: fmt.Sprintf("'%c'", c), IntVal: int64(c), Line: line, Col: col})

		default:
			p := lx.punct()
			if p == "" {
				return nil, errf(line, col, "unexpected character %q", r)
			}
			for range p {
				lx.advance()
			}
			toks = append(toks, Token{Kind: TokPunct, Text: p, Line: line, Col: col})
		}
	}
}
