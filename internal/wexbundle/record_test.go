package wexbundle

// The record decoder against its oracle, encoding/json: what it accepts,
// what it refuses, that it owns every byte it returns, and how fast it is.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
	"unsafe"

	"clientres/internal/crawler"
	"clientres/internal/store"
	"clientres/internal/webgen"
	"clientres/internal/webserver"
)

// recordCrawl crawls the first weeks (at most 10) of a small synthetic web through a
// RecordingTransport, pages and same-site scripts, and returns the bundle's
// record lines without their marks. With chaos the server injects faults
// at rate 0.3 and the crawler runs its resilience layer, so the recording
// holds status-0 and mid-body err records too.
func recordCrawl(tb testing.TB, domains, weeks int, chaos bool) [][]byte {
	tb.Helper()
	eco := webgen.New(webgen.Config{Domains: domains, Weeks: 10, Seed: 5, Bundling: webgen.DefaultBundling(0.3)})
	ws := webserver.New(eco)
	if chaos {
		ws.Chaos = &webserver.Chaos{Seed: 3, Rate: 0.3, Stall: 400 * time.Millisecond, Drip: 20 * time.Millisecond}
	}
	srv := httptest.NewServer(ws)
	defer srv.Close()
	dir := filepath.Join(tb.TempDir(), "bundle")
	w, err := Create(dir, Options{Segments: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cr := crawler.New(crawler.Config{
		BaseURL: srv.URL, Workers: 16, Timeout: 150 * time.Millisecond, FetchScripts: true,
		Resilience: crawler.Resilience{Enabled: chaos, MinGap: time.Millisecond},
		WrapTransport: func(inner http.RoundTripper) http.RoundTripper {
			return &RecordingTransport{Inner: inner, W: w}
		},
	})
	names := make([]string, len(eco.Sites))
	for i := range eco.Sites {
		names[i] = eco.Sites[i].Domain.Name
	}
	for wk := 0; wk < weeks; wk++ {
		if err := cr.CrawlWeek(context.Background(), wk, names, func(crawler.Page) {}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	var lines [][]byte
	err = store.ForEachRawLine(store.SegmentPath(dir, 0), func(line []byte) error {
		lines = append(lines, bytes.Clone(line[1:]))
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return lines
}

// oracle decodes a line with encoding/json.
func oracle(line []byte) (Record, error) {
	var rec Record
	err := json.Unmarshal(line, &rec)
	return rec, err
}

func TestRecordDecoderGrammar(t *testing.T) {
	accept := []string{
		`{"week":3,"domain":"a.example","key":"/w/3/a.example/","status":200,"header":{"Content-Type":["text/html"]},"body":"<html>","dur_us":12}`,
		` { "dur_us" : -7 ,"body":"x", "key":"k","week":0 } ` + "\t\r",
		`{}`,
		`{"week":-0}`,
		`{"week":2147483647,"status":-2147483648,"dur_us":-9223372036854775808}`,
		`{"dur_us":9223372036854775807}`,
		`{"header":null}`,
		`{"header":{}}`,
		`{"header":{"A":null,"B":[],"C":["1","2"],"D":[""]}}`,
		`{"body":"\"\\\/\b\f\n\r\té€"}`,
		`{"body":"\ud83d\ude00 pair, \u003c!DOCTYPE \u2028"}`,
		`{"body":"lone \ud83d high, lone \ude00 low, \ud83dA then A"}`,
		"{\"body\":\"raw \xff\xfe invalid, \xed\xa0\x80 surrogate, \xe2\x82 cut\"}",
		`{"domain":"café","err":"unexpected EOF"}`,
	}
	for _, line := range accept {
		var d recordDecoder
		var got Record
		if err := d.decode([]byte(line), &got); err != nil {
			t.Errorf("refused %s: %v", line, err)
			continue
		}
		want, err := oracle([]byte(line))
		if err != nil {
			t.Fatalf("test line %s is not JSON: %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s\n decoded %#v\n  oracle %#v", line, got, want)
		}
	}

	refuse := []string{
		``,
		`[]`,
		`{"week":1}x`,
		`{"week":1,}`,
		`{"week":1 "key":"k"}`,
		`{"Week":1}`,
		`{"extra":1}`,
		`{"week":1,"week":2}`,
		`{"header":{"A":["1"],"A":["2"]}}`,
		`{"week":1.0}`,
		`{"week":1e2}`,
		`{"week":01}`,
		`{"week":-}`,
		`{"week":9223372036854775808}`,
		`{"week":"1"}`,
		`{"week":null}`,
		`{"key":null}`,
		`{"dur_us":99999999999999999999}`,
		`{"header":["A"]}`,
		`{"header":{"A":"1"}}`,
		`{"header":{"A":[null]}}`,
		`{"header":{"A":[1]}}`,
		`{"body":"unterminated}`,
		`{"body":"bad \x escape"}`,
		`{"body":"bad \u12 escape"}`,
		`{"body":"quote \' is not JSON"}`,
		"{\"body\":\"raw\ncontrol\"}",
		"{\"body\":\"raw\x01control\"}",
		`{"body":"x"`,
	}
	for _, line := range refuse {
		var d recordDecoder
		var got Record
		if err := d.decode([]byte(line), &got); err == nil {
			t.Errorf("accepted %s as %#v", line, got)
		}
	}
}

// TestDecodedRecordOwnsItsBytes decodes two records through one RawLines —
// whose line bytes the second Next reuses — and checks that the first
// record is intact and that none of its strings points into either line
// or into the decoder's scratch.
func TestDecodedRecordOwnsItsBytes(t *testing.T) {
	first := Record{Week: 1, Domain: "a.example", Key: "/w/1/a.example/", Status: 200,
		Header: http.Header{"Content-Type": {"text/html"}, "X-Plain": {"value"}},
		Body:   "<html>first</html>"}
	second := Record{Week: 1, Domain: "b.example", Key: "/w/1/b.example/", Status: 200,
		Header: http.Header{"Content-Type": {"text/javascript"}, "X-Plain": {"other"}},
		Body:   strings.Repeat("var second = 2; ", 10000)} // past the reader's 64 KiB buffer
	var stream []byte
	for _, rec := range []Record{first, second} {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(append(append(stream, store.BundleMark), data...), '\n')
	}
	lines := store.NewRawLines("own", bytes.NewReader(stream))
	defer lines.Close()

	var d recordDecoder
	var got1, got2 Record
	l1, err := lines.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.decode(l1[1:], &got1); err != nil {
		t.Fatal(err)
	}
	l2, err := lines.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.decode(l2[1:], &got2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, second) {
		t.Fatalf("second record decoded as key %q with a %d-byte body", got2.Key, len(got2.Body))
	}
	if !reflect.DeepEqual(got1, first) {
		t.Fatalf("first record changed when the second was read: %+v", got1)
	}

	within := func(s string, buf []byte) bool {
		if len(s) == 0 || cap(buf) == 0 {
			return false
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
		return lo <= p && p < lo+uintptr(cap(buf))
	}
	strs := map[string]string{"Body": got1.Body, "Key": got1.Key, "Domain": got1.Domain}
	for name, vals := range got1.Header {
		strs["header name "+name] = name
		for _, v := range vals {
			strs["header "+name] = v
		}
	}
	for what, s := range strs {
		if within(s, l1) || within(s, l2) {
			t.Errorf("first record's %s points into the reader's line buffer", what)
		}
		if within(s, d.Scratch()) {
			t.Errorf("first record's %s points into the decoder's scratch", what)
		}
	}
}

// TestReplayedStatusLine: a replayed Response.Status reads as net/http
// reports the same code live from a Go server, reason phrase or not.
func TestReplayedStatusLine(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/404":
			w.WriteHeader(404)
		default:
			w.WriteHeader(599)
		}
	}))
	defer srv.Close()
	dir := filepath.Join(t.TempDir(), "bundle")
	appendAll(t, dir, 1, []Record{
		{Domain: "h.example", Key: "h.example/599", Status: 599},
		{Domain: "h.example", Key: "h.example/404", Status: 404},
	})
	b, err := Mount(dir)
	if err != nil {
		t.Fatal(err)
	}
	replay := &http.Client{Transport: b.Transport()}
	for _, path := range []string{"/599", "/404"} {
		live, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		live.Body.Close()
		got, err := replay.Get("http://h.example" + path)
		if err != nil {
			t.Fatal(err)
		}
		got.Body.Close()
		if got.Status != live.Status {
			t.Errorf("%s: replayed status %q, live %q", path, got.Status, live.Status)
		}
	}
	if got := statusLine(599); got != "599 status code 599" {
		t.Errorf("statusLine(599) = %q", got)
	}
}

// canonical is what encoding/json makes of rec: an empty header is
// omitted, so it decodes as nil.
func canonical(rec Record) Record {
	if len(rec.Header) == 0 {
		rec.Header = nil
	}
	return rec
}

func validUTF8(rec Record) bool {
	ok := utf8.ValidString(rec.Domain) && utf8.ValidString(rec.Key) &&
		utf8.ValidString(rec.Err) && utf8.ValidString(rec.Body)
	for name, vals := range rec.Header {
		ok = ok && utf8.ValidString(name)
		for _, v := range vals {
			ok = ok && utf8.ValidString(v)
		}
	}
	return ok
}

// FuzzRecordCodec holds the decoder to encoding/json two ways: (a) any
// line it accepts, encoding/json accepts too and decodes to the same
// Record; (b) whatever json.Marshal writes for a Record, it accepts and
// decodes to what encoding/json does — which is the Record itself when
// its strings are valid UTF-8.
func FuzzRecordCodec(f *testing.F) {
	failed, cut := 0, 0
	for _, line := range recordCrawl(f, 24, 2, true) {
		rec, err := oracle(line)
		if err != nil {
			f.Fatal(err)
		}
		switch {
		case rec.Status == 0:
			failed++
		case rec.Err != "":
			cut++
		}
		name, val, mode := "", "", uint8(0)
		if vs := rec.Header["Content-Type"]; len(vs) > 0 {
			name, val, mode = "Content-Type", vs[0], 4
		}
		f.Add(line, rec.Week, rec.Domain, rec.Key, rec.Status, rec.Err, name, val, mode, rec.Body, rec.DurUS)
	}
	if failed == 0 || cut == 0 {
		f.Fatalf("the chaos recording holds %d status-0 and %d mid-body err records; the seeds need both", failed, cut)
	}
	f.Add([]byte(`{"body":"😀\ud83d"}`), -1, "\xff", "k\x00", 1<<30, " ", "X-\x7f", "\xed\xa0\x80", uint8(2), "<\x1f>&", int64(-1<<63))
	f.Add([]byte(" {\"header\":{\"A\":[]} }\r"), 0, "", "", 0, "", "", "", uint8(3), "", int64(0))
	f.Add([]byte(`{"Week":1,"week":2}`), 0, "", "", 0, "", "", "", uint8(1), "", int64(0))

	f.Fuzz(func(t *testing.T, data []byte, week int, domain, key string, status int, errText, hname, hval string, hmode uint8, body string, dur int64) {
		// (a) One-way agreement on arbitrary bytes, twice through one
		// decoder: its scratch and intern table carry over between lines.
		var d recordDecoder
		var got Record
		if d.decode(data, &got) == nil {
			want, err := oracle(data)
			if err != nil {
				t.Fatalf("accepted what encoding/json refuses (%v): %q", err, data)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q\n decoded %#v\n  oracle %#v", data, got, want)
			}
			var again Record
			if err := d.decode(data, &again); err != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("second decode of %q: %#v, %v", data, again, err)
			}
		}

		// (b) Marshal's output round-trips.
		rec := Record{Week: week, Domain: domain, Key: key, Status: status, Err: errText, Body: body, DurUS: dur}
		switch hmode % 6 {
		case 1:
			rec.Header = http.Header{}
		case 2:
			rec.Header = http.Header{hname: nil}
		case 3:
			rec.Header = http.Header{hname: {}}
		case 4:
			rec.Header = http.Header{hname: {hval}}
		case 5:
			rec.Header = http.Header{hname: {hval, body}, "Content-Type": {hval}}
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.decode(line, &got); err != nil {
			t.Fatalf("refused json.Marshal's %s: %v", line, err)
		}
		want, err := oracle(line)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\n decoded %#v\n  oracle %#v", line, got, want)
		}
		if validUTF8(rec) && !reflect.DeepEqual(got, canonical(rec)) {
			t.Fatalf("%s\n decoded %#v\n written %#v", line, got, rec)
		}
	})
}

// BenchmarkDecodeRecord decodes one recorded week of page and script
// records, with the cursor's decoder and, for comparison, encoding/json.
func BenchmarkDecodeRecord(b *testing.B) {
	lines := recordCrawl(b, 200, 1, false)
	size := 0
	for _, line := range lines {
		size += len(line)
	}
	b.Run("decoder", func(b *testing.B) {
		b.SetBytes(int64(size))
		b.ReportAllocs()
		var d recordDecoder
		var rec Record
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				if err := d.decode(line, &rec); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(size))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				var rec Record
				if err := json.Unmarshal(line, &rec); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
