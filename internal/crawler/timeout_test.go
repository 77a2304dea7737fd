package crawler

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"clientres/internal/webgen"
	"clientres/internal/webserver"
	"clientres/internal/wexbundle"
)

func TestFetchTimeout(t *testing.T) {
	eco := webgen.New(webgen.Config{Domains: 30, Seed: 6})
	srv := webserver.New(eco)
	srv.Latency = 300 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var healthy string
	for i := range eco.Sites {
		if eco.Truth(i, 0).Accessible {
			healthy = eco.Sites[i].Domain.Name
			break
		}
	}
	if healthy == "" {
		t.Skip("no healthy site")
	}

	// A timeout shorter than the latency fails at the connection level.
	fast := New(Config{BaseURL: ts.URL, Timeout: 50 * time.Millisecond, Retries: 1})
	page := fast.Fetch(context.Background(), 0, healthy)
	if page.Err == nil {
		t.Error("sub-latency timeout should fail")
	}
	// A generous timeout succeeds.
	slow := New(Config{BaseURL: ts.URL, Timeout: 5 * time.Second})
	page = slow.Fetch(context.Background(), 0, healthy)
	if page.Err != nil || page.Status != 200 {
		t.Errorf("generous timeout should succeed: status %d err %v", page.Status, page.Err)
	}
}

func TestMaxBodyBytesCapsPage(t *testing.T) {
	eco := webgen.New(webgen.Config{Domains: 30, Seed: 6})
	ts := httptest.NewServer(webserver.New(eco))
	defer ts.Close()
	var healthy string
	for i := range eco.Sites {
		if eco.Truth(i, 0).Accessible {
			healthy = eco.Sites[i].Domain.Name
			break
		}
	}
	c := New(Config{BaseURL: ts.URL, MaxBodyBytes: 128})
	page := c.Fetch(context.Background(), 0, healthy)
	if page.Err != nil {
		t.Fatal(page.Err)
	}
	if len(page.Body) > 128 {
		t.Errorf("body = %d bytes, cap 128", len(page.Body))
	}
}

// stallingBody serves headers and the first bytes of a body, then holds
// the rest until the client gives up, the test ends, or three seconds pass
// (then the body ends short, so an unbounded read fails rather than hangs).
func stallingBody(t *testing.T) *httptest.Server {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "4096")
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "<html>the first bytes")
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
		case <-release:
		case <-time.After(3 * time.Second):
		}
	}))
	t.Cleanup(func() { close(release); ts.Close() })
	return ts
}

// checkBodyStallTimesOut fetches from a server whose body stalls after the
// headers and checks that Timeout ends the attempt as a connection-level
// failure carrying the deadline, well before the stall would end.
func checkBodyStallTimesOut(t *testing.T, c *Crawler) {
	t.Helper()
	start := time.Now()
	page := c.Fetch(context.Background(), 0, "stall.example")
	took := time.Since(start)
	if page.Err == nil || page.Status != 0 {
		t.Fatalf("stalled body fetched: status %d err %v", page.Status, page.Err)
	}
	if !errors.Is(page.Err, context.DeadlineExceeded) {
		t.Errorf("stalled body failed without the deadline: %v", page.Err)
	}
	if took < 100*time.Millisecond || took > 2*time.Second {
		t.Errorf("fetch took %v against a 100ms timeout", took)
	}
	if m := c.Metrics(); m.ConnFailures != 1 || m.Successes != 0 {
		t.Errorf("metrics: %d connection failures, %d successes; want 1 and 0", m.ConnFailures, m.Successes)
	}
}

// TestTimeoutBoundsBodyRead: Timeout covers the body read, not only the
// wait for headers.
func TestTimeoutBoundsBodyRead(t *testing.T) {
	ts := stallingBody(t)
	checkBodyStallTimesOut(t, New(Config{BaseURL: ts.URL, Timeout: 100 * time.Millisecond, Retries: NoRetries}))
}

// TestTimeoutBoundsWrappedTransport: the bound holds through a wrapped
// transport that is not an *http.Transport — the recorder, which reads the
// whole body inside its RoundTrip — and the recording keeps the failure.
func TestTimeoutBoundsWrappedTransport(t *testing.T) {
	ts := stallingBody(t)
	dir := filepath.Join(t.TempDir(), "bundle")
	w, err := wexbundle.Create(dir, wexbundle.Options{Segments: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{BaseURL: ts.URL, Timeout: 100 * time.Millisecond, Retries: NoRetries,
		WrapTransport: func(inner http.RoundTripper) http.RoundTripper {
			return &wexbundle.RecordingTransport{Inner: inner, W: w}
		}})
	checkBodyStallTimesOut(t, c)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := wexbundle.Mount(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := b.Records()
	if len(recs) != 1 || recs[0].Status != http.StatusOK || recs[0].Err == "" {
		t.Fatalf("recording of the stalled fetch: %+v", recs)
	}
}
