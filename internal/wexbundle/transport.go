// The crawler-transport seam: recording and replaying http.RoundTrippers.

package wexbundle

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// RecordingTransport wraps a real transport and archives every exchange —
// response or failure — before handing it to the crawler. Append errors
// fail the round trip: a recording that cannot keep its promise must stop
// the crawl, not silently produce a bundle with holes.
type RecordingTransport struct {
	Inner http.RoundTripper
	W     *Writer
}

// RoundTrip performs the inner request, archives the outcome, and returns
// a response whose body replays the captured bytes (including any mid-body
// error, at its recorded position), so the crawler sees exactly what was
// archived.
func (t *RecordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := Key(req.URL)
	week, domain := splitKey(key, req.URL.Host)
	rec := Record{Week: week, Domain: domain, Key: key}
	start := time.Now()
	resp, err := t.Inner.RoundTrip(req)
	if err != nil {
		rec.Err = err.Error()
		rec.DurUS = time.Since(start).Microseconds()
		if aerr := t.W.Append(rec); aerr != nil {
			return nil, fmt.Errorf("wexbundle: record: %w", aerr)
		}
		return nil, err
	}
	body, rerr := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	rec.Status = resp.StatusCode
	rec.Header = resp.Header
	rec.Body = string(body)
	rec.DurUS = time.Since(start).Microseconds()
	if rerr != nil {
		rec.Err = rerr.Error()
	}
	if aerr := t.W.Append(rec); aerr != nil {
		return nil, fmt.Errorf("wexbundle: record: %w", aerr)
	}
	resp.Body = &replayBody{data: rec.Body, err: rerr}
	return resp, nil
}

// Transport returns the bundle's replay http.RoundTripper. It has no inner
// transport: a request the bundle did not record is an error, never a live
// fetch — the zero-network guarantee — and so is a request for a week that
// is not resident, lest a fetch the archive holds replay as "no record".
func (b *Bundle) Transport() http.RoundTripper { return &replayTransport{b: b} }

type replayTransport struct {
	b *Bundle
}

func (t *replayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := Key(req.URL)
	if week, _ := splitKey(key, req.URL.Host); week < t.b.lo || week > t.b.hi {
		return nil, fmt.Errorf("wexbundle: %s: week %d of %q is not resident (the reader is at week %d; Advance moves it)", t.b.dir, week, key, t.b.hi)
	}
	rec, ok := t.b.Get(key)
	if !ok {
		return nil, fmt.Errorf("wexbundle: %s: no record for %q (replay never touches the network)", t.b.dir, key)
	}
	if rec.Status == 0 {
		// A connection-level failure: replay it as one. http.Client wraps
		// transport errors in *url.Error, same as a live dial failure.
		return nil, errors.New(rec.Err)
	}
	var berr error
	if rec.Err != "" {
		berr = errors.New(rec.Err) // mid-body failure after the recorded prefix
	}
	hdr := rec.Header.Clone() // the caller may write to it; the record is shared
	if hdr == nil {
		hdr = http.Header{}
	}
	return &http.Response{
		Status:        statusLine(rec.Status),
		StatusCode:    rec.Status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        hdr,
		Body:          &replayBody{data: rec.Body, err: berr},
		ContentLength: int64(len(rec.Body)),
		Request:       req,
	}, nil
}

// statusLine is Response.Status as net/http reports it live from a Go
// server: the code and its reason phrase, or "status code N" for a code
// with none.
func statusLine(code int) string {
	n := strconv.Itoa(code)
	if text := http.StatusText(code); text != "" {
		return n + " " + text
	}
	return n + " status code " + n
}

// replayBody yields data, then err (or EOF) — reproducing a recorded body
// byte-for-byte including where a live read failed mid-stream. It reads
// the record's own string: replay copies a body only into the caller's
// buffer.
type replayBody struct {
	data string
	off  int
	err  error
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off < len(b.data) {
		n := copy(p, b.data[b.off:])
		b.off += n
		return n, nil
	}
	if b.err != nil {
		return 0, b.err
	}
	return 0, io.EOF
}

func (b *replayBody) Close() error { return nil }
