// Decoding record lines: the read side of the line Writer.Append writes,
// without reflection.

package wexbundle

import (
	"fmt"
	"net/http"
	"strconv"

	"clientres/internal/jsonlex"
)

// recordDecoder decodes the JSON object json.Marshal writes for a Record,
// on the shared jsonlex lexer. It accepts the fields in any order, JSON
// whitespace, every string escape (surrogate pairs included; a lone
// surrogate and invalid UTF-8 become U+FFFD, as encoding/json makes them),
// and a null header or header value. It refuses everything else — unknown
// or case-folded keys, duplicate keys, numbers that are not integers of
// the field's size, a null where a string or number belongs — though
// encoding/json accepts some of that: no Writer ever wrote it, so the
// decoder only has to agree with encoding/json on what it accepts
// (FuzzRecordCodec).
//
// One decoder belongs to one cursor, whose lines it decodes in turn: the
// unescape scratch and the intern table are reused from line to line, and
// no decoded string aliases the line, which RawLines reuses.
type recordDecoder struct {
	jsonlex.Lexer
	// Header members of the current record, flattened: name, value count
	// (-1 for null) and the values of all members in order.
	names  []string
	counts []int
	vals   []string
	// intern holds header names and values already seen on this cursor:
	// the same few recur on every record of a recording.
	intern jsonlex.Interner
}

// recordKeys are the JSON keys of a Record, in decode's order.
var recordKeys = []string{"week", "domain", "key", "status", "err", "header", "body", "dur_us"}

// decode parses one record line, without its '!' mark, into rec.
func (d *recordDecoder) decode(line []byte, rec *Record) error {
	d.Reset(line)
	*rec = Record{}
	_, err := d.Object(recordKeys, func(k int) (err error) {
		var n int64
		switch k {
		case 0:
			n, err = d.Int(strconv.IntSize)
			rec.Week = int(n)
		case 1:
			rec.Domain, err = d.QuotedString()
		case 2:
			rec.Key, err = d.QuotedString()
		case 3:
			n, err = d.Int(strconv.IntSize)
			rec.Status = int(n)
		case 4:
			rec.Err, err = d.QuotedString()
		case 5:
			rec.Header, err = d.header()
		case 6:
			rec.Body, err = d.QuotedString()
		case 7:
			rec.DurUS, err = d.Int(64)
		}
		return err
	})
	if err == nil {
		err = d.End()
	}
	d.Reset(nil)
	return err
}

// header parses the header object: null, or names mapped to null or to
// arrays of strings. All values share one backing array, each name's
// slice capped so an append to one cannot write into the next.
func (d *recordDecoder) header() (http.Header, error) {
	if d.Null() {
		return nil, nil
	}
	if !d.Next('{') {
		return nil, d.Fail("want a header object")
	}
	d.names, d.counts, d.vals = d.names[:0], d.counts[:0], d.vals[:0]
	if !d.Next('}') {
		for {
			b, err := d.Quoted()
			if err != nil {
				return nil, err
			}
			name := d.intern.String(b)
			if !d.Next(':') {
				return nil, d.Fail("want ':'")
			}
			n := -1
			if !d.Null() {
				first := len(d.vals)
				err := d.Array(func() error {
					v, err := d.Quoted()
					if err == nil {
						d.vals = append(d.vals, d.intern.String(v))
					}
					return err
				})
				if err != nil {
					return nil, err
				}
				n = len(d.vals) - first
			}
			d.names, d.counts = append(d.names, name), append(d.counts, n)
			if d.Next('}') {
				break
			}
			if !d.Next(',') {
				return nil, d.Fail("want ',' or '}'")
			}
		}
	}
	h := make(http.Header, len(d.names))
	vals := make([]string, len(d.vals))
	copy(vals, d.vals)
	off := 0
	for j, name := range d.names {
		if _, dup := h[name]; dup {
			return nil, d.Fail(fmt.Sprintf("duplicate header %q", name))
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
