// Delta encoding: the v3 record format.
//
// The paper's dataset is longitudinal — 201 weekly snapshots of the same
// domains — and week-over-week a page rarely changes, so encoding every
// observation as full JSON re-states the same facts ~200 times. The v3
// format exploits that structure the same way the fingerprint memo does:
// within a segment each domain forms a stream (segment partition keeps all
// of a domain's weeks together, week-ascending), and week N is encoded as
// a diff against the domain's week N-1. Three record kinds, told apart by
// their first byte:
//
//	'=' <json observation> '\n'   full record (first sighting of a domain,
//	                              or after a resume reset the dictionary)
//	'~' <week> ' ' <domain> '\n'  same-as-last-week: identical to the
//	                              previous observation except for Week
//	'^' <json delta> '\n'         field-level delta against the previous
//	                              observation (only changed fields present)
//
// The '~' fast path is the common case and round-trips without any JSON on
// either side; '=' and '^' bodies are written by encoding/json and read by
// the reflection-free obsDecoder (obsdecode.go). Unlike v2 there are no
// per-record checksum frames — integrity moves to whole-compressed-member
// FNV-1a checksums (see members.go) — so deflate's match window sees pure,
// highly repetitive text and v3 archives come in smaller than v1.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"
)

// v3 record marks. None is v4's '!' or the '{' and '#' that began v1 and
// v2 records, so the first decompressed byte identifies the format.
const (
	fullMark  = '='
	sameMark  = '~'
	deltaMark = '^'
)

// obsDelta is the wire form of a '^' record: Domain and Week are always
// present, every other field only when it changed since the previous week.
// Libs and Flash can legitimately change *to* their zero value (a library
// dropped, Flash removed), which omitempty alone cannot express — LibsSet
// and FlashSet carry that "this field changed" bit explicitly.
type obsDelta struct {
	Domain    string         `json:"d"`
	Week      int            `json:"w"`
	Rank      *int           `json:"r,omitempty"`
	Status    *int           `json:"s,omitempty"`
	Bytes     *int           `json:"b,omitempty"`
	Country   *string        `json:"c,omitempty"`
	HasJS     *bool          `json:"j,omitempty"`
	WordPress *string        `json:"wp,omitempty"`
	LibsSet   bool           `json:"ls,omitempty"`
	Libs      []LibRecord    `json:"l,omitempty"`
	FlashSet  bool           `json:"fs,omitempty"`
	Flash     *FlashRecord   `json:"f,omitempty"`
	Resources *ResourceFlags `json:"rf,omitempty"`
}

// Clone returns a deep copy of o: the Libs backing array and the Flash
// record are duplicated, so the copy may be mutated without touching o —
// the writer's dictionary keeps one, since a caller may reuse what it
// wrote.
func (o Observation) Clone() Observation {
	if o.Libs != nil {
		o.Libs = append([]LibRecord(nil), o.Libs...)
	}
	if o.Flash != nil {
		f := *o.Flash
		o.Flash = &f
	}
	return o
}

// canonObs normalizes the properties JSON round-trips erase, so encoder
// and decoder dictionaries agree byte-for-byte: an empty Libs slice and a
// nil one marshal identically (omitempty), so both sides keep nil.
func canonObs(o Observation) Observation {
	if len(o.Libs) == 0 {
		o.Libs = nil
	}
	return o
}

// libsEqual reports element-wise equality, treating nil and empty alike
// (they are indistinguishable after a JSON round trip).
func libsEqual(a, b []LibRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func flashEqual(a, b *FlashRecord) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// sameExceptWeek reports whether two observations differ in Week alone —
// the '~' fast-path predicate.
func sameExceptWeek(a, b *Observation) bool {
	return a.Domain == b.Domain &&
		a.Rank == b.Rank &&
		a.Status == b.Status &&
		a.Bytes == b.Bytes &&
		a.Country == b.Country &&
		a.HasJS == b.HasJS &&
		a.WordPress == b.WordPress &&
		a.Resources == b.Resources &&
		flashEqual(a.Flash, b.Flash) &&
		libsEqual(a.Libs, b.Libs)
}

// domainInline reports whether a domain can be embedded raw in a '~'
// record, whose line format is delimited by '\n'. Domains carrying a
// newline (hostile input, not DNS) fall back to JSON-escaped records. So
// do domains that are not valid UTF-8: the JSON of their '=' record turned
// each invalid byte into U+FFFD, so the reader's dictionary knows them by
// that name, and raw bytes would name a domain it never saw.
func domainInline(domain string) bool {
	for i := 0; i < len(domain); i++ {
		if domain[i] == '\n' || domain[i] == '\r' {
			return false
		}
	}
	return utf8.ValidString(domain)
}

// readerName returns the name a reader's dictionary knows a domain by: the
// string its JSON decodes to. encoding/json writes each byte that is not
// valid UTF-8 as U+FFFD, so "a\xff.com", "a\xfe.com" and "a\uFFFD.com" are
// one domain to a reader, and the writer must diff each against that one
// entry. Valid domains are their own name.
func readerName(domain string) string {
	if utf8.ValidString(domain) {
		return domain
	}
	name := make([]byte, 0, len(domain)+8)
	for i := 0; i < len(domain); {
		r, size := utf8.DecodeRuneInString(domain[i:])
		if r == utf8.RuneError && size == 1 {
			name = utf8.AppendRune(name, r)
		} else {
			name = append(name, domain[i:i+size]...)
		}
		i += size
	}
	return string(name)
}

// diffObs builds the delta record turning prev into obs. Domain and Week
// are unconditional; everything else is included only when changed.
func diffObs(prev, obs *Observation) obsDelta {
	d := obsDelta{Domain: obs.Domain, Week: obs.Week}
	if obs.Rank != prev.Rank {
		d.Rank = &obs.Rank
	}
	if obs.Status != prev.Status {
		d.Status = &obs.Status
	}
	if obs.Bytes != prev.Bytes {
		d.Bytes = &obs.Bytes
	}
	if obs.Country != prev.Country {
		d.Country = &obs.Country
	}
	if obs.HasJS != prev.HasJS {
		d.HasJS = &obs.HasJS
	}
	if obs.WordPress != prev.WordPress {
		d.WordPress = &obs.WordPress
	}
	if !libsEqual(obs.Libs, prev.Libs) {
		d.LibsSet = true
		d.Libs = obs.Libs
	}
	if !flashEqual(obs.Flash, prev.Flash) {
		d.FlashSet = true
		d.Flash = obs.Flash
	}
	if obs.Resources != prev.Resources {
		r := obs.Resources
		d.Resources = &r
	}
	return d
}

// parseSameRecord parses the body of a '~' record (mark and trailing '\n'
// already stripped): "<week> <domain>".
func parseSameRecord(body []byte) (week int, domain []byte, ok bool) {
	i := 0
	for ; i < len(body) && body[i] >= '0' && body[i] <= '9'; i++ {
		week = week*10 + int(body[i]-'0')
		if week > 1<<30 {
			return 0, nil, false
		}
	}
	if i == 0 || i >= len(body) || body[i] != ' ' {
		return 0, nil, false
	}
	return week, body[i+1:], true
}

// decodeDelta decodes a v3 delta stream. It materializes the previous
// observation per domain stream and applies '~'/'^' records against it;
// '=' and '^' bodies go through obsDecoder, and the '~' fast path reads no
// JSON at all. The observations handed to fn share their Libs/Flash with
// the decoder's domain dictionary, which never writes them after handing
// them out: fn may retain them and must not mutate them (ForEach's
// contract).
func decodeDelta(br *bufio.Reader, path string, fn func(Observation) error) error {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("store: %s: corrupt stream: "+format, append([]any{path}, args...)...)
	}
	prev := make(map[string]Observation)
	var dec obsDecoder
	var long []byte // spill for records longer than the bufio buffer
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			long = append(long[:0], line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				if len(line) == 0 {
					return nil
				}
				return corrupt("torn record: %w", io.ErrUnexpectedEOF)
			}
			return corrupt("%w", err)
		}
		if len(line) < 2 {
			return corrupt("empty record")
		}
		body := line[1 : len(line)-1]
		switch line[0] {
		case fullMark:
			obs, err := dec.full(body)
			if err != nil {
				return corrupt("bad record: %w", err)
			}
			prev[obs.Domain] = obs
			if err := fn(obs); err != nil {
				return err
			}
		case sameMark:
			week, domain, ok := parseSameRecord(body)
			if !ok {
				return corrupt("bad same-record %q", body)
			}
			p, seen := prev[string(domain)]
			if !seen {
				return corrupt("same-record for unseen domain %q", domain)
			}
			p.Week = week
			if err := fn(p); err != nil {
				return err
			}
		case deltaMark:
			domain, d, err := dec.delta(body)
			if err != nil {
				return corrupt("bad delta record: %w", err)
			}
			p, seen := prev[string(domain)]
			if !seen {
				return corrupt("delta record for unseen domain %q", domain)
			}
			obs := d.apply(p)
			prev[p.Domain] = obs
			if err := fn(obs); err != nil {
				return err
			}
		default:
			return corrupt("bad record mark %q", line[0])
		}
	}
}
