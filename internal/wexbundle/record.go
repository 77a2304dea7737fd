// Decoding record lines: the read side of the line Writer.Append writes,
// without reflection.

package wexbundle

import (
	"fmt"
	"net/http"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// recordDecoder decodes the JSON object json.Marshal writes for a Record.
// It accepts the fields in any order, JSON whitespace, every string escape
// (surrogate pairs included; a lone surrogate and invalid UTF-8 become
// U+FFFD, as encoding/json makes them), and a null header or header value.
// It refuses everything else — unknown or case-folded keys, duplicate keys,
// numbers that are not integers of the field's size, a null where a string
// or number belongs — though encoding/json accepts some of that: no Writer
// ever wrote it, so the decoder only has to agree with encoding/json on
// what it accepts (FuzzRecordCodec).
//
// One decoder belongs to one cursor, whose lines it decodes in turn: the
// unescape scratch and the intern table are reused from line to line, and
// no decoded string aliases the line, which RawLines reuses.
type recordDecoder struct {
	s   []byte // the line being decoded
	i   int    // read offset in s
	buf []byte // unescaped string scratch
	// Header members of the current record, flattened: name, value count
	// (-1 for null) and the values of all members in order.
	names  []string
	counts []int
	vals   []string
	// intern holds header names and values already seen on this cursor:
	// the same few recur on every record of a recording.
	intern map[string]string
}

// maxInterned bounds the intern table, so a recording whose header values
// never repeat (a Date per second) cannot grow it without end.
const maxInterned = 1024

// Record field bits, for the duplicate-key check.
const (
	fWeek = 1 << iota
	fDomain
	fKey
	fStatus
	fErr
	fHeader
	fBody
	fDurUS
)

// decode parses one record line, without its '!' mark, into rec.
func (d *recordDecoder) decode(line []byte, rec *Record) error {
	d.s, d.i = line, 0
	err := d.object(rec)
	d.s = nil
	return err
}

func (d *recordDecoder) object(rec *Record) error {
	*rec = Record{}
	if !d.next('{') {
		return d.fail("want '{'")
	}
	seen := 0
	if !d.next('}') {
		for {
			if !d.next('"') {
				return d.fail("want a key")
			}
			name, err := d.str()
			if err != nil {
				return err
			}
			var bit int
			switch string(name) {
			case "week":
				bit = fWeek
			case "domain":
				bit = fDomain
			case "key":
				bit = fKey
			case "status":
				bit = fStatus
			case "err":
				bit = fErr
			case "header":
				bit = fHeader
			case "body":
				bit = fBody
			case "dur_us":
				bit = fDurUS
			default:
				return d.fail(fmt.Sprintf("unknown key %q", name))
			}
			if seen&bit != 0 {
				return d.fail(fmt.Sprintf("duplicate key %q", name))
			}
			seen |= bit
			if !d.next(':') {
				return d.fail("want ':'")
			}
			var n int64
			switch bit {
			case fWeek:
				n, err = d.intField(strconv.IntSize)
				rec.Week = int(n)
			case fStatus:
				n, err = d.intField(strconv.IntSize)
				rec.Status = int(n)
			case fDurUS:
				rec.DurUS, err = d.intField(64)
			case fDomain:
				rec.Domain, err = d.strField()
			case fKey:
				rec.Key, err = d.strField()
			case fErr:
				rec.Err, err = d.strField()
			case fBody:
				rec.Body, err = d.strField()
			case fHeader:
				rec.Header, err = d.header()
			}
			if err != nil {
				return err
			}
			if d.next('}') {
				break
			}
			if !d.next(',') {
				return d.fail("want ',' or '}'")
			}
		}
	}
	d.ws()
	if d.i != len(d.s) {
		return d.fail("trailing bytes")
	}
	return nil
}

// ws skips JSON whitespace.
func (d *recordDecoder) ws() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (d *recordDecoder) next(c byte) bool {
	d.ws()
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

// null consumes the literal null if it comes next (after whitespace).
func (d *recordDecoder) null() bool {
	d.ws()
	if len(d.s)-d.i >= 4 && string(d.s[d.i:d.i+4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

func (d *recordDecoder) fail(what string) error {
	return fmt.Errorf("%s at byte %d", what, d.i)
}

// intField parses a JSON integer that fits a signed int of bits bits.
func (d *recordDecoder) intField(bits int) (int64, error) {
	d.ws()
	start, neg := d.i, false
	if d.i < len(d.s) && d.s[d.i] == '-' {
		neg = true
		d.i++
	}
	digits := d.i
	var u uint64
	for d.i < len(d.s) && '0' <= d.s[d.i] && d.s[d.i] <= '9' {
		if u > (1<<63)/10 {
			return 0, d.fail("integer overflow")
		}
		u = u*10 + uint64(d.s[d.i]-'0')
		d.i++
	}
	switch n := d.i - digits; {
	case n == 0:
		d.i = start
		return 0, d.fail("want an integer")
	case n > 1 && d.s[digits] == '0':
		return 0, d.fail("leading zero")
	}
	if d.i < len(d.s) {
		if c := d.s[d.i]; c == '.' || c == 'e' || c == 'E' {
			return 0, d.fail("not an integer")
		}
	}
	limit := uint64(1) << (bits - 1) // |min|; max is one less
	if u > limit || (!neg && u == limit) {
		return 0, d.fail("integer overflow")
	}
	if neg {
		return -int64(u), nil
	}
	return int64(u), nil
}

// strField parses a JSON string into a string of its own.
func (d *recordDecoder) strField() (string, error) {
	if !d.next('"') {
		return "", d.fail("want a string")
	}
	b, err := d.str()
	return string(b), err
}

// header parses the header object: null, or names mapped to null or to
// arrays of strings. All values share one backing array, each name's
// slice capped so an append to one cannot write into the next.
func (d *recordDecoder) header() (http.Header, error) {
	if d.null() {
		return nil, nil
	}
	if !d.next('{') {
		return nil, d.fail("want a header object")
	}
	d.names, d.counts, d.vals = d.names[:0], d.counts[:0], d.vals[:0]
	if !d.next('}') {
		for {
			if !d.next('"') {
				return nil, d.fail("want a header name")
			}
			name, err := d.interned()
			if err != nil {
				return nil, err
			}
			if !d.next(':') {
				return nil, d.fail("want ':'")
			}
			n := -1
			if !d.null() {
				if !d.next('[') {
					return nil, d.fail("want a header value array")
				}
				n = 0
				if !d.next(']') {
					for {
						if !d.next('"') {
							return nil, d.fail("want a header value")
						}
						v, err := d.interned()
						if err != nil {
							return nil, err
						}
						d.vals = append(d.vals, v)
						n++
						if d.next(']') {
							break
						}
						if !d.next(',') {
							return nil, d.fail("want ',' or ']'")
						}
					}
				}
			}
			d.names, d.counts = append(d.names, name), append(d.counts, n)
			if d.next('}') {
				break
			}
			if !d.next(',') {
				return nil, d.fail("want ',' or '}'")
			}
		}
	}
	h := make(http.Header, len(d.names))
	vals := make([]string, len(d.vals))
	copy(vals, d.vals)
	off := 0
	for j, name := range d.names {
		if _, dup := h[name]; dup {
			return nil, d.fail(fmt.Sprintf("duplicate header %q", name))
		}
		if n := d.counts[j]; n < 0 {
			h[name] = nil
		} else {
			h[name] = vals[off : off+n : off+n]
			off += n
		}
	}
	clear(d.vals) // drop the references until the next header
	return h, nil
}

// interned parses a JSON string and returns it from the intern table,
// adding it while the table has room.
func (d *recordDecoder) interned() (string, error) {
	b, err := d.str()
	if err != nil {
		return "", err
	}
	if s, ok := d.intern[string(b)]; ok {
		return s, nil
	}
	s := string(b)
	if d.intern == nil {
		d.intern = make(map[string]string)
	}
	if len(d.intern) < maxInterned {
		d.intern[s] = s
	}
	return s, nil
}

// str parses the rest of a JSON string whose opening quote is consumed and
// returns its unescaped bytes: a view of the line when the string holds no
// escape and only valid UTF-8, else of the scratch buffer. Either way the
// bytes are valid until the next call; the caller copies what it keeps.
func (d *recordDecoder) str() ([]byte, error) {
	start := d.i
	for d.i < len(d.s) {
		c := d.s[d.i]
		switch {
		case c == '"':
			d.i++
			return d.s[start : d.i-1], nil
		case c == '\\' || c < ' ':
			return d.unescape(start)
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRune(d.s[d.i:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start)
			}
			d.i += size
		}
	}
	return nil, d.fail("unterminated string")
}

// unescape finishes a string str found to need rewriting: the bytes from
// start to the read offset are plain and copied as they are, the rest is
// decoded into the scratch buffer exactly as encoding/json decodes it.
func (d *recordDecoder) unescape(start int) ([]byte, error) {
	d.buf = append(d.buf[:0], d.s[start:d.i]...)
	for d.i < len(d.s) {
		c := d.s[d.i]
		switch {
		case c == '"':
			d.i++
			return d.buf, nil
		case c < ' ':
			return nil, d.fail("control character in string")
		case c == '\\':
			if d.i+1 >= len(d.s) {
				return nil, d.fail("unterminated escape")
			}
			switch e := d.s[d.i+1]; e {
			case '"', '\\', '/':
				d.buf = append(d.buf, e)
			case 'b':
				d.buf = append(d.buf, '\b')
			case 'f':
				d.buf = append(d.buf, '\f')
			case 'n':
				d.buf = append(d.buf, '\n')
			case 'r':
				d.buf = append(d.buf, '\r')
			case 't':
				d.buf = append(d.buf, '\t')
			case 'u':
				r := d.u4(d.i)
				if r < 0 {
					return nil, d.fail(`malformed \u escape`)
				}
				d.i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, d.u4(d.i)); dec != utf8.RuneError {
						d.i += 6
						d.buf = utf8.AppendRune(d.buf, dec)
						continue
					}
					r = utf8.RuneError
				}
				d.buf = utf8.AppendRune(d.buf, r)
				continue
			default:
				return nil, d.fail("invalid escape")
			}
			d.i += 2
		case c < utf8.RuneSelf:
			// Copy the run of plain ASCII in one append.
			j := d.i + 1
			for j < len(d.s) {
				if c := d.s[j]; c == '"' || c == '\\' || c < ' ' || c >= utf8.RuneSelf {
					break
				}
				j++
			}
			d.buf = append(d.buf, d.s[d.i:j]...)
			d.i = j
		default:
			r, size := utf8.DecodeRune(d.s[d.i:])
			if r == utf8.RuneError && size == 1 {
				d.buf = utf8.AppendRune(d.buf, r)
			} else {
				d.buf = append(d.buf, d.s[d.i:d.i+size]...)
			}
			d.i += size
		}
	}
	return nil, d.fail("unterminated string")
}

// u4 reads the \uXXXX escape at offset at, or -1 if there is none.
func (d *recordDecoder) u4(at int) rune {
	if len(d.s)-at < 6 || d.s[at] != '\\' || d.s[at+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range d.s[at+2 : at+6] {
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
