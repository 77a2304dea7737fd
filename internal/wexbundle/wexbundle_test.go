package wexbundle

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clientres/internal/store"
)

func mustURL(t *testing.T, raw string) *url.URL {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestKeyScheme(t *testing.T) {
	cases := []struct {
		raw, want string
	}{
		// Crawl-web URLs key by path alone: port-independent replay.
		{"http://127.0.0.1:43211/w/7/example.com/", "/w/7/example.com/"},
		{"http://127.0.0.1:9/w/7/example.com/js/app.js", "/w/7/example.com/js/app.js"},
		// External audit URLs key by host+path(+query).
		{"http://shop.example/cart", "shop.example/cart"},
		{"https://shop.example/cart?page=2", "shop.example/cart?page=2"},
	}
	for _, tc := range cases {
		if got := Key(mustURL(t, tc.raw)); got != tc.want {
			t.Errorf("Key(%s) = %q, want %q", tc.raw, got, tc.want)
		}
	}
}

func TestSplitKey(t *testing.T) {
	if w, d := splitKey("/w/13/example.com/js/a.js", "h:1"); w != 13 || d != "example.com" {
		t.Errorf("splitKey crawl key = (%d, %q)", w, d)
	}
	if w, d := splitKey("shop.example/cart", "shop.example"); w != 0 || d != "shop.example" {
		t.Errorf("splitKey external key = (%d, %q)", w, d)
	}
}

// writeTestBundle records a small fixed set of fetches across two weeks
// and three domains into dir, committing week by week, and returns the
// records in append order.
func writeTestBundle(t *testing.T, dir string, segments int) []Record {
	t.Helper()
	w, err := Create(dir, Options{
		Segments:   segments,
		Checkpoint: true,
		Run:        store.RunID{Seed: 7, Domains: 3, Weeks: 2},
		Meta:       Meta{Domains: 3, Weeks: 2, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for wk := 0; wk < 2; wk++ {
		for _, dom := range []string{"a.example", "b.example", "c.example"} {
			rec := Record{
				Week: wk, Domain: dom,
				Key:    "/w/" + itoa(wk) + "/" + dom + "/",
				Status: 200,
				Header: http.Header{"Content-Type": {"text/html"}},
				Body:   "<html>" + dom + " week " + itoa(wk) + "</html>",
				DurUS:  1200,
			}
			recs = append(recs, rec)
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.CommitWeek(wk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestRecordMountRoundTrip(t *testing.T) {
	for _, segments := range []int{1, 3} {
		dir := filepath.Join(t.TempDir(), "bundle")
		recs := writeTestBundle(t, dir, segments)
		b, err := Mount(dir)
		if err != nil {
			t.Fatalf("segments=%d: %v", segments, err)
		}
		if b.Len() != len(recs) {
			t.Fatalf("segments=%d: mounted %d keys, recorded %d", segments, b.Len(), len(recs))
		}
		for _, want := range recs {
			got, ok := b.Get(want.Key)
			if !ok {
				t.Fatalf("segments=%d: key %q missing", segments, want.Key)
			}
			if got.Body != want.Body || got.Status != want.Status || got.Week != want.Week {
				t.Errorf("segments=%d: key %q: got %+v want %+v", segments, want.Key, got, want)
			}
		}
		if got := b.Meta(); got.Domains != 3 || got.Weeks != 2 || got.Seed != 7 {
			t.Errorf("meta = %+v", got)
		}
		ordered := b.Records()
		for i := 1; i < len(ordered); i++ {
			if ordered[i].Week < ordered[i-1].Week ||
				(ordered[i].Week == ordered[i-1].Week && ordered[i].Key < ordered[i-1].Key) {
				t.Fatalf("Records() out of (week, key) order at %d", i)
			}
		}
	}
}

func TestLastRecordPerKeyWins(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	w, err := Create(dir, Options{Segments: 1})
	if err != nil {
		t.Fatal(err)
	}
	key := "/w/0/a.example/"
	for i, body := range []string{"first attempt", "retry wins"} {
		if err := w.Append(Record{Week: 0, Domain: "a.example", Key: key, Status: 200, Body: body}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := Mount(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("%d keys, want 1", b.Len())
	}
	if rec, _ := b.Get(key); rec.Body != "retry wins" {
		t.Errorf("replay serves %q, want the last append", rec.Body)
	}
}

// TestMountDetectsBitFlip is the archive-integrity proof: a single
// corrupted byte anywhere in a sealed bundle fails the mount (the member
// table is verified before any record is decoded).
func TestMountDetectsBitFlip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	writeTestBundle(t, dir, 2)
	path := store.SegmentPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(dir); err == nil {
		t.Fatal("Mount accepted a bit-flipped bundle")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want a checksum failure, got: %v", err)
	}
	if _, err := Stats(dir); err == nil {
		t.Fatal("Stats accepted a bit-flipped bundle")
	}
}

func TestMountRejectsObservationStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	sw, err := store.CreateSegmented(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Write(store.Observation{Domain: "a.example", Status: 200}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(dir); err == nil {
		t.Fatal("Mount accepted a v3 observation store")
	}
}

func TestStats(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	w, err := Create(dir, Options{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	appends := []Record{
		{Week: 0, Domain: "a.example", Key: "/w/0/a.example/", Status: 200, Body: "page a"},
		{Week: 0, Domain: "a.example", Key: "/w/0/a.example/js/app.js", Status: 200, Body: "script body"},
		{Week: 0, Domain: "b.example", Key: "/w/0/b.example/", Err: "connection refused"},
		{Week: 1, Domain: "a.example", Key: "/w/1/a.example/", Status: 200, Body: "page a again"},
	}
	for _, rec := range appends {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := Stats(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[0].Week != 0 || stats[1].Week != 1 {
		t.Fatalf("stats weeks: %+v", stats)
	}
	w0 := stats[0]
	if w0.Records != 3 || w0.Pages != 2 || w0.Failures != 1 {
		t.Errorf("week 0: %+v", w0)
	}
	if w0.BodyBytes != int64(len("page a")+len("script body")) {
		t.Errorf("week 0 body bytes = %d", w0.BodyBytes)
	}
}

// TestReplayTransportServesRecords drives the replay RoundTripper through
// a real http.Client: success bodies and headers come back exactly as
// recorded, connection-level failures replay as transport errors, and
// mid-body failures fail the read at the recorded position.
func TestReplayTransportServesRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	w, err := Create(dir, Options{Segments: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Week: 0, Domain: "a.example", Key: "/w/0/a.example/", Status: 200,
			Header: http.Header{"Content-Type": {"text/html"}}, Body: "<html>ok</html>"},
		{Week: 0, Domain: "b.example", Key: "/w/0/b.example/", Err: "dial tcp: connection refused"},
		{Week: 0, Domain: "c.example", Key: "/w/0/c.example/", Status: 200,
			Body: "partial bo", Err: "unexpected EOF"},
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := Mount(dir)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: b.Transport()}

	resp, err := client.Get("http://no-such-host.invalid/w/0/a.example/")
	if err != nil {
		t.Fatalf("replayed fetch: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "<html>ok</html>" || resp.StatusCode != 200 {
		t.Fatalf("replayed page: status %d body %q err %v", resp.StatusCode, body, err)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/html" {
		t.Errorf("replayed header Content-Type = %q", got)
	}

	if _, err := client.Get("http://no-such-host.invalid/w/0/b.example/"); err == nil {
		t.Fatal("connection-failure record replayed as success")
	} else if !strings.Contains(err.Error(), "connection refused") {
		t.Errorf("replayed failure lost its cause: %v", err)
	}

	resp, err = client.Get("http://no-such-host.invalid/w/0/c.example/")
	if err != nil {
		t.Fatalf("mid-body record: %v", err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "partial bo" {
		t.Errorf("mid-body prefix = %q", body)
	}
	if err == nil || !strings.Contains(err.Error(), "unexpected EOF") {
		t.Errorf("mid-body error = %v", err)
	}

	// The zero-network guarantee: a key the bundle never recorded is an
	// error, not a live fetch — there is no inner transport to fall back
	// to, so nothing can reach the (nonexistent) host.
	if _, err := client.Get("http://no-such-host.invalid/w/9/zzz.example/"); err == nil {
		t.Fatal("unrecorded key replayed as success")
	} else if !strings.Contains(err.Error(), "no record") {
		t.Errorf("miss error = %v", err)
	}
}

// TestRecordingTransportArchivesExchanges proves the recorder is invisible
// to its caller (bodies pass through intact) while archiving every
// exchange, and that a replay of the archive reproduces the live fetches.
func TestRecordingTransportArchivesExchanges(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "missing") {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("X-Probe", "live")
		io.WriteString(w, "body of "+r.URL.Path)
	}))
	defer srv.Close()

	dir := filepath.Join(t.TempDir(), "bundle")
	bw, err := Create(dir, Options{Segments: 1})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &RecordingTransport{Inner: http.DefaultTransport, W: bw}}
	paths := []string{"/w/0/a.example/", "/w/0/a.example/js/app.js", "/w/0/missing.example/"}
	for _, p := range paths {
		resp, err := client.Get(srv.URL + p)
		if err != nil {
			t.Fatalf("live %s: %v", p, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(p, "missing") && string(body) != "body of "+p {
			t.Fatalf("recorder altered the live body: %q", body)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}

	srv.Close() // replay must not need the server
	b, err := Mount(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != len(paths) {
		t.Fatalf("archived %d keys, want %d", b.Len(), len(paths))
	}
	replay := &http.Client{Transport: b.Transport()}
	resp, err := replay.Get(srv.URL + "/w/0/a.example/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "body of /w/0/a.example/" {
		t.Errorf("replayed body = %q", body)
	}
	if got := resp.Header.Get("X-Probe"); got != "live" {
		t.Errorf("replayed header = %q", got)
	}
	resp, err = replay.Get(srv.URL + "/w/0/missing.example/")
	if err != nil || resp.StatusCode != 404 {
		t.Fatalf("replayed 404: status %v err %v", resp, err)
	}
	resp.Body.Close()
}

// TestRecordingTransportArchivesFailures: a connection-level failure is
// archived and replays as the same failure.
func TestRecordingTransportArchivesFailures(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	bw, err := Create(dir, Options{Segments: 1})
	if err != nil {
		t.Fatal(err)
	}
	inner := roundTripFunc(func(*http.Request) (*http.Response, error) {
		return nil, errors.New("dial tcp 127.0.0.1:1: connect: connection refused")
	})
	client := &http.Client{Transport: &RecordingTransport{Inner: inner, W: bw}}
	if _, err := client.Get("http://a.example/w/3/a.example/"); err == nil {
		t.Fatal("recorder swallowed the failure")
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := Mount(dir)
	if err != nil {
		t.Fatal(err)
	}
	replay := &http.Client{Transport: b.Transport()}
	if _, err := replay.Get("http://a.example/w/3/a.example/"); err == nil {
		t.Fatal("archived failure replayed as success")
	} else if !strings.Contains(err.Error(), "connection refused") {
		t.Errorf("replayed failure = %v", err)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestResumeRejectsObservationStore: a bundle resume pointed at the sealed
// observation store recorded beside the bundle is refused before the store
// unseals the directory — manifest and segment stay byte-for-byte what
// they were. (store's TestResumeRefusesOtherCodec is the other direction.)
func TestResumeRejectsObservationStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	run := store.RunID{Seed: 1, Domains: 1, Weeks: 1}
	sw, err := store.CreateSegmentedWith(dir, 1, store.SegmentedOptions{Checkpoint: true, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Write(store.Observation{Domain: "a.example", Status: 200}); err != nil {
		t.Fatal(err)
	}
	if err := sw.CommitWeek(0); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	snapshot := func() string {
		var all []byte
		for _, f := range []string{filepath.Join(dir, store.ManifestName), store.SegmentPath(dir, 0)} {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, data...)
		}
		return string(all)
	}
	before := snapshot()
	if _, _, err := Resume(dir, Options{Run: run}); err == nil {
		t.Fatal("Resume accepted an observation-store checkpoint")
	}
	if snapshot() != before {
		t.Error("the refused resume changed the manifest or the segment")
	}
}

func TestCommitWeekStaleTolerant(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	run := store.RunID{Seed: 2, Domains: 1, Weeks: 3}
	w, err := Create(dir, Options{Segments: 1, Checkpoint: true, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Week: 0, Domain: "a.example", Key: "/w/0/a.example/", Status: 200, Body: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := w.CommitWeek(0); err != nil {
		t.Fatal(err)
	}
	// The crash-interleaving case: the store committed behind the bundle,
	// so the resumed run re-commits week 0. Must be a no-op, not an error.
	if err := w.CommitWeek(0); err != nil {
		t.Fatalf("re-commit of a committed week: %v", err)
	}
	if err := w.CommitWeek(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
