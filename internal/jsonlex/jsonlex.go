// Package jsonlex is the repository's one hand-written JSON reader: the
// lexer under the reflection-free decoders of the two record lines read on
// every replay — wexbundle's bundle records and the store's v3
// observation records. It reads one line held in memory and offers the
// tokens those grammars are made of: punctuation, null, booleans,
// integers, strings with every escape, keyed objects and arrays. Each
// grammar says which keys and values it takes; the lexer refuses what no
// JSON writer could have written.
//
// Strings decode exactly as encoding/json decodes them: a surrogate pair
// joins, and a lone surrogate or invalid UTF-8 becomes U+FFFD.
package jsonlex

import (
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// Lexer reads the JSON tokens of one line. Its unescape scratch is reused
// from line to line, so one Lexer belongs to one reader.
type Lexer struct {
	s   []byte // the line being read
	i   int    // read offset in s
	buf []byte // unescaped string scratch
}

// Reset starts reading line; Reset(nil) drops the reference to the last.
func (l *Lexer) Reset(line []byte) { l.s, l.i = line, 0 }

// Scratch is the unescape buffer Quoted returns escaped strings in.
func (l *Lexer) Scratch() []byte { return l.buf }

// Fail returns a syntax error at the read offset.
func (l *Lexer) Fail(what string) error {
	return fmt.Errorf("%s at byte %d", what, l.i)
}

// ws skips JSON whitespace.
func (l *Lexer) ws() {
	for l.i < len(l.s) {
		switch l.s[l.i] {
		case ' ', '\t', '\n', '\r':
			l.i++
		default:
			return
		}
	}
}

// Next skips whitespace and consumes c if it comes next.
func (l *Lexer) Next(c byte) bool {
	l.ws()
	if l.i < len(l.s) && l.s[l.i] == c {
		l.i++
		return true
	}
	return false
}

// End skips trailing whitespace and refuses anything after it.
func (l *Lexer) End() error {
	l.ws()
	if l.i != len(l.s) {
		return l.Fail("trailing bytes")
	}
	return nil
}

// literal consumes word if it comes next (after whitespace).
func (l *Lexer) literal(word string) bool {
	l.ws()
	if len(l.s)-l.i >= len(word) && string(l.s[l.i:l.i+len(word)]) == word {
		l.i += len(word)
		return true
	}
	return false
}

// Null consumes the literal null if it comes next (after whitespace).
func (l *Lexer) Null() bool { return l.literal("null") }

// Bool parses true or false.
func (l *Lexer) Bool() (bool, error) {
	switch {
	case l.literal("true"):
		return true, nil
	case l.literal("false"):
		return false, nil
	}
	return false, l.Fail("want a boolean")
}

// Int parses a JSON integer that fits a signed int of bits bits. A
// fraction or an exponent is refused, even when its value is whole.
func (l *Lexer) Int(bits int) (int64, error) {
	l.ws()
	start, neg := l.i, false
	if l.i < len(l.s) && l.s[l.i] == '-' {
		neg = true
		l.i++
	}
	digits := l.i
	var u uint64
	for l.i < len(l.s) && '0' <= l.s[l.i] && l.s[l.i] <= '9' {
		if u > (1<<63)/10 {
			return 0, l.Fail("integer overflow")
		}
		u = u*10 + uint64(l.s[l.i]-'0')
		l.i++
	}
	switch n := l.i - digits; {
	case n == 0:
		l.i = start
		return 0, l.Fail("want an integer")
	case n > 1 && l.s[digits] == '0':
		return 0, l.Fail("leading zero")
	}
	if l.i < len(l.s) {
		if c := l.s[l.i]; c == '.' || c == 'e' || c == 'E' {
			return 0, l.Fail("not an integer")
		}
	}
	limit := uint64(1) << (bits - 1) // |min|; max is one less
	if u > limit || (!neg && u == limit) {
		return 0, l.Fail("integer overflow")
	}
	if neg {
		return -int64(u), nil
	}
	return int64(u), nil
}

// Quoted parses a JSON string, opening quote included, and returns its
// unescaped bytes: a view of the line when the string holds no escape and
// only valid UTF-8, else of the scratch buffer. Either way the bytes are
// valid until the next call; the caller copies what it keeps.
func (l *Lexer) Quoted() ([]byte, error) {
	if !l.Next('"') {
		return nil, l.Fail("want a string")
	}
	return l.str()
}

// QuotedString parses a JSON string into a string of its own.
func (l *Lexer) QuotedString() (string, error) {
	b, err := l.Quoted()
	return string(b), err
}

// Object parses a JSON object whose members are named by keys: for each
// member it finds the key's index k in keys and calls value(k) to parse
// the value. An unknown key (keys match exactly, case included) and a key
// given twice are refused. It returns the set of keys present, bit k for
// keys[k]; keys holds at most 64.
func (l *Lexer) Object(keys []string, value func(k int) error) (seen uint64, err error) {
	if !l.Next('{') {
		return 0, l.Fail("want '{'")
	}
	if l.Next('}') {
		return 0, nil
	}
	for {
		name, err := l.Quoted()
		if err != nil {
			return seen, err
		}
		k := 0
		for k < len(keys) && keys[k] != string(name) {
			k++
		}
		switch {
		case k == len(keys):
			return seen, l.Fail(fmt.Sprintf("unknown key %q", name))
		case seen&(1<<k) != 0:
			return seen, l.Fail(fmt.Sprintf("duplicate key %q", name))
		}
		seen |= 1 << k
		if !l.Next(':') {
			return seen, l.Fail("want ':'")
		}
		if err := value(k); err != nil {
			return seen, err
		}
		if l.Next('}') {
			return seen, nil
		}
		if !l.Next(',') {
			return seen, l.Fail("want ',' or '}'")
		}
	}
}

// Array parses a JSON array, calling elem to parse each element.
func (l *Lexer) Array(elem func() error) error {
	if !l.Next('[') {
		return l.Fail("want '['")
	}
	if l.Next(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if l.Next(']') {
			return nil
		}
		if !l.Next(',') {
			return l.Fail("want ',' or ']'")
		}
	}
}

// str parses the rest of a string whose opening quote Quoted consumed,
// returning a view of the line until it meets a byte that needs rewriting.
func (l *Lexer) str() ([]byte, error) {
	start := l.i
	for l.i < len(l.s) {
		c := l.s[l.i]
		switch {
		case c == '"':
			l.i++
			return l.s[start : l.i-1], nil
		case c == '\\' || c < ' ':
			return l.unescape(start)
		case c < utf8.RuneSelf:
			l.i++
		default:
			r, size := utf8.DecodeRune(l.s[l.i:])
			if r == utf8.RuneError && size == 1 {
				return l.unescape(start)
			}
			l.i += size
		}
	}
	return nil, l.Fail("unterminated string")
}

// unescape finishes a string str found to need rewriting: the bytes from
// start to the read offset are plain and copied as they are, the rest is
// decoded into the scratch buffer exactly as encoding/json decodes it.
func (l *Lexer) unescape(start int) ([]byte, error) {
	l.buf = append(l.buf[:0], l.s[start:l.i]...)
	for l.i < len(l.s) {
		c := l.s[l.i]
		switch {
		case c == '"':
			l.i++
			return l.buf, nil
		case c < ' ':
			return nil, l.Fail("control character in string")
		case c == '\\':
			if l.i+1 >= len(l.s) {
				return nil, l.Fail("unterminated escape")
			}
			switch e := l.s[l.i+1]; e {
			case '"', '\\', '/':
				l.buf = append(l.buf, e)
			case 'b':
				l.buf = append(l.buf, '\b')
			case 'f':
				l.buf = append(l.buf, '\f')
			case 'n':
				l.buf = append(l.buf, '\n')
			case 'r':
				l.buf = append(l.buf, '\r')
			case 't':
				l.buf = append(l.buf, '\t')
			case 'u':
				r := l.u4(l.i)
				if r < 0 {
					return nil, l.Fail(`malformed \u escape`)
				}
				l.i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, l.u4(l.i)); dec != utf8.RuneError {
						l.i += 6
						l.buf = utf8.AppendRune(l.buf, dec)
						continue
					}
					r = utf8.RuneError
				}
				l.buf = utf8.AppendRune(l.buf, r)
				continue
			default:
				return nil, l.Fail("invalid escape")
			}
			l.i += 2
		case c < utf8.RuneSelf:
			// Copy the run of plain ASCII in one append.
			j := l.i + 1
			for j < len(l.s) {
				if c := l.s[j]; c == '"' || c == '\\' || c < ' ' || c >= utf8.RuneSelf {
					break
				}
				j++
			}
			l.buf = append(l.buf, l.s[l.i:j]...)
			l.i = j
		default:
			r, size := utf8.DecodeRune(l.s[l.i:])
			if r == utf8.RuneError && size == 1 {
				l.buf = utf8.AppendRune(l.buf, r)
			} else {
				l.buf = append(l.buf, l.s[l.i:l.i+size]...)
			}
			l.i += size
		}
	}
	return nil, l.Fail("unterminated string")
}

// u4 reads the \uXXXX escape at offset at, or -1 if there is none.
func (l *Lexer) u4(at int) rune {
	if len(l.s)-at < 6 || l.s[at] != '\\' || l.s[at+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range l.s[at+2 : at+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// MaxInterned bounds an Interner, so a stream whose strings never repeat
// (a Date header per second, a version string per release) cannot grow
// it without end.
const MaxInterned = 1024

// Interner hands out one string per distinct value while it has room:
// the few names, hosts and versions that recur on every record of a
// stream are allocated once. The zero Interner is ready to use.
type Interner struct {
	m map[string]string
}

// String returns b as a string of its own, from the table when it is
// there, and adds it while the table has room.
func (t *Interner) String(b []byte) string {
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if t.m == nil {
		t.m = make(map[string]string)
	}
	if len(t.m) < MaxInterned {
		t.m[s] = s
	}
	return s
}
