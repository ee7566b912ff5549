// Package lang implements minilang, the small Java-like input language of
// the reproduction. Minilang provides exactly the constructs the paper's
// analyses reason about: classes with single inheritance and virtual
// dispatch, instance and static fields, arrays, threads (classes with a
// thread entry method, started via start()/join()), event handlers
// (classes with an event entry method, invoked by dispatch), and
// synchronized blocks. Conditions of if/while are parsed but not analyzed;
// both branches are retained, matching the flow-insensitive analyses.
package lang

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tInt
	tPunct   // one of ( ) { } [ ] ; , = . ! < > & | + - * % /
	tKeyword // see keywordKind
)

type token struct {
	kind tokKind
	text string
	line int
}

// Byte classes of the scanner. Bytes from 0x80 up start a UTF-8 sequence
// and are decoded as runes; every other byte is classified by the table.
const (
	bOther   uint8 = iota // not allowed outside strings and comments
	bSpace                // ' ' '\t' '\r'
	bNewline              // '\n'
	bIdent                // '_' '$' 'A'-'Z' 'a'-'z'
	bDigit                // '0'-'9'
	bPunct                // ( ) { } [ ] ; , = . ! < > & | + - * %
	bSlash                // '/': a comment or punctuation
	bQuote                // '"': a string literal
	bUTF8                 // 0x80-0xff
)

var byteClass = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = bIdent, bIdent
	}
	t['_'], t['$'] = bIdent, bIdent
	for c := '0'; c <= '9'; c++ {
		t[c] = bDigit
	}
	// Comparison, logic and arithmetic characters only appear inside
	// (ignored) conditions and indices; the parser skips them.
	for _, c := range "(){}[];,=.!<>&|+-*%" {
		t[c] = bPunct
	}
	t[' '], t['\t'], t['\r'], t['\n'] = bSpace, bSpace, bSpace, bNewline
	t['/'], t['"'] = bSlash, bQuote
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = bUTF8
	}
	return t
}()

// keywordKind classifies an identifier-shaped word.
func keywordKind(word string) tokKind {
	switch word {
	case "class", "extends", "field", "static", "main", "func", "new", "sync",
		"if", "else", "while", "return", "null", "super", "volatile", "origin",
		"select", "default":
		return tKeyword
	}
	return tIdent
}

// scanner produces tokens one at a time; the parser pulls the next one
// when it consumes the current one. The first lexical error ends the
// stream: scan records it in err and returns EOF from then on.
type scanner struct {
	src  string
	file string
	pos  int
	line int
	err  error
}

func (s *scanner) scan() token {
	for s.err == nil && s.pos < len(s.src) {
		c := s.src[s.pos]
		switch byteClass[c] {
		case bNewline:
			s.line++
			s.pos++
		case bSpace:
			s.pos++
		case bIdent:
			return s.word()
		case bDigit:
			start := s.pos
			for s.pos < len(s.src) && byteClass[s.src[s.pos]] == bDigit {
				s.pos++
			}
			return token{tInt, s.src[start:s.pos], s.line}
		case bPunct:
			s.pos++
			return token{tPunct, s.src[s.pos-1 : s.pos], s.line}
		case bSlash:
			if !s.comment() {
				s.pos++
				return token{tPunct, "/", s.line}
			}
		case bQuote:
			return s.str()
		case bUTF8:
			r, size := utf8.DecodeRuneInString(s.src[s.pos:])
			switch {
			case r == utf8.RuneError && size == 1:
				s.fail("invalid UTF-8 byte %#x", c)
			case unicode.IsLetter(r):
				return s.word()
			default:
				s.fail("unexpected character %q", r)
			}
		default:
			s.fail("unexpected character %q", rune(c))
		}
	}
	return token{tEOF, "", s.line}
}

// drain scans the rest of the input and returns the first lexical error.
func (s *scanner) drain() error {
	for s.scan().kind != tEOF {
	}
	return s.err
}

func (s *scanner) fail(format string, args ...any) {
	s.err = fmt.Errorf("%s:%d: %s", s.file, s.line, fmt.Sprintf(format, args...))
}

// word scans an identifier or keyword: '_', '$', letters and digits.
func (s *scanner) word() token {
	start := s.pos
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		if k := byteClass[c]; k == bIdent || k == bDigit {
			s.pos++
			continue
		}
		if c < utf8.RuneSelf {
			break
		}
		r, size := utf8.DecodeRuneInString(s.src[s.pos:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		s.pos += size
	}
	w := s.src[start:s.pos]
	return token{keywordKind(w), w, s.line}
}

// comment skips the comment that starts at the '/' under s.pos, and
// reports false if that slash opens none.
func (s *scanner) comment() bool {
	if s.pos+1 >= len(s.src) {
		return false
	}
	switch s.src[s.pos+1] {
	case '/':
		if n := strings.IndexByte(s.src[s.pos:], '\n'); n >= 0 {
			s.pos += n
		} else {
			s.pos = len(s.src)
		}
		return true
	case '*':
		body := s.src[s.pos+2:]
		n := strings.Index(body, "*/")
		if n < 0 {
			// The error names the last line a "*/" could start on, so a
			// newline in the final byte does not count.
			s.line += strings.Count(body[:max(len(body)-1, 0)], "\n")
			s.fail("unterminated block comment")
			return true
		}
		s.line += strings.Count(body[:n], "\n")
		s.pos += 2 + n + 2
		return true
	}
	return false
}

// str scans a string literal, an opaque literal like an integer. Its
// token carries the line the literal ends on.
func (s *scanner) str() token {
	start := s.pos
	body := s.src[start+1:]
	n := strings.IndexByte(body, '"')
	if n < 0 {
		s.line += strings.Count(body, "\n")
		s.fail("unterminated string")
		return token{tEOF, "", s.line}
	}
	s.line += strings.Count(body[:n], "\n")
	s.pos = start + 1 + n + 1
	return token{tInt, s.src[start:s.pos], s.line}
}
