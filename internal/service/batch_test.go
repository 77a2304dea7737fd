package service

// Tests for the policy wiring over HTTP, the NDJSON batch endpoint, and
// the online/batch/offline verdict equivalence guarantee.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"clientres/internal/policy"
)

// gateYAML is the issue's motivating CI gate: against vulnerablePage at
// the fixed audit clock, stale-high matches the long-public jQuery XSS
// advisories and missing-sri matches both CDN includes → overall fail.
const gateYAML = `name: gate
rules:
  - name: stale-high
    scope: finding
    when: severity == "high" && age(disclosed) > 90d
  - name: missing-sri
    when: missing_sri > 0
  - name: discontinued
    level: warn
    scope: library
    when: discontinued
`

// policyEnvelopeBody is the {"audit":…,"policy":…} response shape.
type policyEnvelopeBody struct {
	Audit  json.RawMessage `json:"audit"`
	Policy policy.Verdict  `json:"policy"`
}

func TestAuditWithInlinePolicy(t *testing.T) {
	s := newTestServer(t, Config{})
	plain := postAudit(s, vulnerablePage, "")
	if plain.Code != 200 {
		t.Fatalf("plain audit status = %d", plain.Code)
	}

	body, _ := json.Marshal(auditRequest{
		HTML: vulnerablePage, Host: "example.com",
		Policy: mustJSON(t, gateYAML),
	})
	rec := postAudit(s, string(body), "application/json")
	if rec.Code != 200 {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Policy-Verdict"); got != "fail" {
		t.Errorf("X-Policy-Verdict = %q, want fail", got)
	}
	var env policyEnvelopeBody
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("envelope not JSON: %v\n%s", err, rec.Body)
	}
	// The audit member must be the plain response verbatim — the envelope
	// splices cached bytes untouched.
	if !bytes.Equal(env.Audit, bytes.TrimRight(plain.Body.Bytes(), "\n")) {
		t.Error("audit member differs from the plain audit response")
	}
	if env.Policy.Overall != "fail" || len(env.Policy.Rules) != 3 {
		t.Fatalf("verdict = %+v", env.Policy)
	}
	byName := map[string]policy.RuleVerdict{}
	for _, rv := range env.Policy.Rules {
		byName[rv.Rule] = rv
	}
	if rv := byName["stale-high"]; rv.Outcome != "fail" || rv.Matched == 0 {
		t.Errorf("stale-high = %+v", rv)
	}
	if rv := byName["missing-sri"]; rv.Outcome != "fail" {
		t.Errorf("missing-sri = %+v", rv)
	}
	if rv := byName["discontinued"]; rv.Outcome != "pass" {
		t.Errorf("discontinued = %+v", rv)
	}
	if s.met.policyFail.Load() != 1 {
		t.Errorf("policyFail = %d, want 1", s.met.policyFail.Load())
	}
	// Inline policies must not feed per-rule series (none exist here).
	if len(s.met.policyRules) != 0 {
		t.Errorf("policyRules registered for inline policy: %d", len(s.met.policyRules))
	}
}

func TestAuditWithServerPolicy(t *testing.T) {
	pol, err := policy.Compile([]byte(gateYAML))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Policy: pol})

	// Raw-HTML POSTs opt in via the query toggle.
	req := httptest.NewRequest(http.MethodPost, "/v1/audit?host=example.com&policy=server", strings.NewReader(vulnerablePage))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var env policyEnvelopeBody
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Policy.Overall != "fail" {
		t.Fatalf("overall = %q", env.Policy.Overall)
	}

	// JSON POSTs name it as the string "server".
	body, _ := json.Marshal(auditRequest{HTML: vulnerablePage, Host: "example.com", Policy: json.RawMessage(`"server"`)})
	rec2 := postAudit(s, string(body), "application/json")
	if rec2.Code != 200 {
		t.Fatalf("json status = %d", rec2.Code)
	}

	// The preloaded policy has per-rule verdict series, and both audits
	// above fed them.
	if len(s.met.policyRules) != 3 {
		t.Fatalf("policyRules = %d, want 3", len(s.met.policyRules))
	}
	if got := s.met.policyRules[0].fail.Load(); got != 2 {
		t.Errorf("stale-high fail count = %d, want 2", got)
	}
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		`clientres_policy_verdicts_total{overall="fail"} 2`,
		`clientres_policy_rule_verdicts_total{rule="stale-high",outcome="fail"} 2`,
		`clientres_policy_rule_verdicts_total{rule="discontinued",outcome="pass"} 2`,
	} {
		if !strings.Contains(mrec.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestAuditPolicyErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		body string
		ct   string
		url  string
	}{
		{"inline bad source", Config{}, `{"html":"<html></html>","policy":"rules:\n  - when: nosuchfield"}`, "application/json", "/v1/audit"},
		{"server policy not loaded", Config{}, `{"html":"<html></html>","policy":"server"}`, "application/json", "/v1/audit"},
		{"unknown query selector", Config{}, `<html></html>`, "", "/v1/audit?policy=bogus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.cfg)
			req := httptest.NewRequest(http.MethodPost, tc.url, strings.NewReader(tc.body))
			if tc.ct != "" {
				req.Header.Set("Content-Type", tc.ct)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", rec.Code, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), "bad policy") {
				t.Errorf("body %q should name the policy problem", rec.Body)
			}
		})
	}
}

// batchLine is one parsed NDJSON response line.
type batchLine struct {
	Index   int             `json:"index"`
	Audit   json.RawMessage `json:"audit"`
	Policy  *policy.Verdict `json:"policy"`
	Error   string          `json:"error"`
	Shed    bool            `json:"shed"`
	Summary *BatchSummary   `json:"summary"`
}

func parseBatchLines(t *testing.T, body []byte) []batchLine {
	t.Helper()
	var out []batchLine
	for _, raw := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var l batchLine
		l.Index = -1
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", raw, err)
		}
		out = append(out, l)
	}
	return out
}

func postBatch(s *Server, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/audit/batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBatchEndpointReconciles(t *testing.T) {
	s := newTestServer(t, Config{})
	var in bytes.Buffer
	fmt.Fprintf(&in, `{"policy":%s}`+"\n", mustJSON(t, gateYAML))
	fmt.Fprintf(&in, `{"html":%s,"host":"example.com"}`+"\n", mustJSON(t, vulnerablePage))
	fmt.Fprintf(&in, `{"html":"<html></html>","host":"clean.test"}`+"\n")
	fmt.Fprintf(&in, "this is not json\n")
	fmt.Fprintf(&in, `{"url":"http://x.test/"}`+"\n")

	rec := postBatch(s, in.String())
	if rec.Code != 200 {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := parseBatchLines(t, rec.Body.Bytes())
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 4 records + summary:\n%s", len(lines), rec.Body)
	}
	for i, l := range lines[:4] {
		if l.Index != i {
			t.Errorf("line %d has index %d — output must be in input order", i, l.Index)
		}
	}
	if lines[0].Policy == nil || lines[0].Policy.Overall != "fail" {
		t.Errorf("record 0 = %+v, want policy fail", lines[0])
	}
	var a0 AuditResponse
	if err := json.Unmarshal(lines[0].Audit, &a0); err != nil || a0.Host != "example.com" {
		t.Errorf("record 0 audit wrong: %v %+v", err, a0)
	}
	if lines[1].Policy == nil || lines[1].Policy.Overall != "pass" {
		t.Errorf("record 1 = %+v, want policy pass", lines[1])
	}
	if lines[2].Error != "invalid JSON record" {
		t.Errorf("record 2 = %+v", lines[2])
	}
	if !strings.Contains(lines[3].Error, "url records are not supported") {
		t.Errorf("record 3 = %+v", lines[3])
	}
	sum := lines[4].Summary
	if sum == nil {
		t.Fatal("missing summary line")
	}
	if sum.Records != 4 || sum.Completed != 2 || sum.Errors != 2 || sum.Shed != 0 || sum.Overall != "fail" {
		t.Errorf("summary = %+v", sum)
	}
	if s.met.batchStreams.Load() != 1 || s.met.batchRecords.Load() != 4 ||
		s.met.batchCompleted.Load() != 2 || s.met.batchErrors.Load() != 2 {
		t.Errorf("batch counters streams=%d records=%d completed=%d errors=%d",
			s.met.batchStreams.Load(), s.met.batchRecords.Load(),
			s.met.batchCompleted.Load(), s.met.batchErrors.Load())
	}
	if s.met.batchActive.Load() != 0 {
		t.Errorf("batchActive = %d after stream end, want 0", s.met.batchActive.Load())
	}
}

func TestBatchBadControlLinePolicy(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postBatch(s, `{"policy":"rules:\n  - when: nosuchfield"}`+"\n")
	lines := parseBatchLines(t, rec.Body.Bytes())
	if len(lines) != 1 || !strings.Contains(lines[0].Error, "bad policy") {
		t.Fatalf("lines = %+v, want one bad-policy error", lines)
	}
}

// TestBatchSharesCacheWithSingleAudits pins that batch and single audits
// read and write the same response cache: a batch miss banks the entry a
// later single audit hits.
func TestBatchSharesCacheWithSingleAudits(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postBatch(s, `{"html":"<html><p>x</p></html>","host":"example.com"}`+"\n")
	if rec.Code != 200 {
		t.Fatalf("batch status = %d", rec.Code)
	}
	if s.met.cacheMisses.Load() != 1 {
		t.Fatalf("cacheMisses = %d, want 1", s.met.cacheMisses.Load())
	}
	single := postAudit(s, "<html><p>x</p></html>", "")
	if got := single.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("single after batch X-Cache = %q, want hit", got)
	}
	// And the reverse: a single-audit entry serves a batch record.
	rec2 := postBatch(s, `{"html":"<html><p>x</p></html>","host":"example.com"}`+"\n")
	lines := parseBatchLines(t, rec2.Body.Bytes())
	if lines[1].Summary.Completed != 1 {
		t.Fatalf("summary = %+v", lines[1].Summary)
	}
	if s.met.cacheHits.Load() != 2 {
		t.Errorf("cacheHits = %d, want 2", s.met.cacheHits.Load())
	}
}

// TestBatchShedsWhenQueueFull proves a batch record sheds through the
// same queue-full accounting as the single-audit 503 path, as an inline
// error line rather than a stream abort.
func TestBatchShedsWhenQueueFull(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	cfg := Config{Workers: 1, QueueDepth: 1, CacheEntries: -1}
	cfg.testHookAuditStart = func() { started <- struct{}{}; <-release }
	s := newTestServer(t, cfg)
	// Registered after newTestServer's Close, so it runs first.
	releaseWorker := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseWorker)

	// Occupy the worker, then fill the one-slot queue, with single audits.
	singleDone := make(chan int, 2)
	audit := func(i int) {
		rec := postAudit(s, fmt.Sprintf("<html>%d</html>", i), "")
		singleDone <- rec.Code
	}
	go audit(0)
	<-started
	go audit(1)
	deadline := time.Now().Add(5 * time.Second)
	for len(s.jobs) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	rec := postBatch(s, `{"html":"<html>overflow</html>"}`+"\n")
	lines := parseBatchLines(t, rec.Body.Bytes())
	if len(lines) != 2 || lines[0].Error != "audit queue full" || !lines[0].Shed {
		t.Fatalf("lines = %+v, want one shed error line", lines)
	}
	sum := lines[1].Summary
	if sum == nil || sum.Records != 1 || sum.Errors != 1 || sum.Shed != 1 || sum.Completed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if s.met.shedQueue.Load() != 1 || s.met.batchShedRecords.Load() != 1 {
		t.Errorf("shedQueue = %d batchShed = %d, want 1/1",
			s.met.shedQueue.Load(), s.met.batchShedRecords.Load())
	}

	releaseWorker()
	for i := 0; i < 2; i++ {
		if code := <-singleDone; code != 200 {
			t.Errorf("single audit status = %d", code)
		}
	}
}

// TestBatchStreamsRecordByRecord is the Flusher-passthrough proof: the
// first record's response line must arrive while the request body is
// still open (the client has not sent record two yet). If statusWriter
// hid http.Flusher, or the handler buffered until end of input, the read
// below would deadlock against the unfinished request body.
func TestBatchStreamsRecordByRecord(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/audit/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, errc := make(chan *http.Response, 1), make(chan error, 1)
	go func() {
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		resp <- r
	}()

	if _, err := io.WriteString(pw, `{"html":"<html>first</html>"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	var r *http.Response
	select {
	case r = <-resp:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("no response headers while body open")
	}
	defer r.Body.Close()

	type lineOrErr struct {
		line string
		err  error
	}
	reads := make(chan lineOrErr, 4)
	br := bufio.NewReader(r.Body)
	go func() {
		for {
			l, err := br.ReadString('\n')
			reads <- lineOrErr{l, err}
			if err != nil {
				return
			}
		}
	}()

	select {
	case got := <-reads:
		if got.err != nil || !strings.Contains(got.line, `"index":0`) {
			t.Fatalf("first line = %+v", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first record's line never arrived while record two was unsent")
	}

	if _, err := io.WriteString(pw, `{"html":"<html>second</html>"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	_ = pw.Close()
	var rest []string
	for got := range reads {
		if got.err != nil {
			break
		}
		rest = append(rest, got.line)
	}
	if len(rest) != 2 || !strings.Contains(rest[0], `"index":1`) || !strings.Contains(rest[1], `"summary"`) {
		t.Fatalf("remaining lines = %q, want record 1 + summary", rest)
	}
}

// TestPolicyVerdictEquivalence is the acceptance bar: the same pages and
// policy produce byte-identical verdict JSON through POST /v1/audit,
// POST /v1/audit/batch, and the offline RunBatch used by cmd/analyze.
func TestPolicyVerdictEquivalence(t *testing.T) {
	pages := []struct{ html, host string }{
		{vulnerablePage, "example.com"},
		{`<html><script src="https://cdn.test/lib.js"></script></html>`, "shop.test"},
		{"<html></html>", "clean.test"},
	}
	s := newTestServer(t, Config{})

	// Online single audits, policy inline.
	var online [][]byte
	for _, pg := range pages {
		body, _ := json.Marshal(auditRequest{HTML: pg.html, Host: pg.host, Policy: mustJSON(t, gateYAML)})
		rec := postAudit(s, string(body), "application/json")
		if rec.Code != 200 {
			t.Fatalf("single status = %d", rec.Code)
		}
		var env struct {
			Policy json.RawMessage `json:"policy"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		online = append(online, env.Policy)
	}

	// Online batch with the policy as the control line. Served from the
	// same server: records hit the cache the singles just filled, which
	// must not change the verdict bytes.
	var in bytes.Buffer
	fmt.Fprintf(&in, `{"policy":%s}`+"\n", mustJSON(t, gateYAML))
	for _, pg := range pages {
		fmt.Fprintf(&in, `{"html":%s,"host":%q}`+"\n", mustJSON(t, pg.html), pg.host)
	}
	rec := postBatch(s, in.String())
	if rec.Code != 200 {
		t.Fatalf("batch status = %d", rec.Code)
	}
	batchLines := parseBatchLines(t, rec.Body.Bytes())

	// Offline RunBatch on the identical NDJSON input and clock.
	var out bytes.Buffer
	sum, err := RunBatch(strings.NewReader(in.String()), &out, nil, fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 3 || sum.Completed != 3 || sum.Overall != "fail" {
		t.Fatalf("offline summary = %+v", sum)
	}
	offlineLines := parseBatchLines(t, out.Bytes())

	for i := range pages {
		var batchV, offlineV json.RawMessage
		var bl, ol struct {
			Policy json.RawMessage `json:"policy"`
		}
		if err := json.Unmarshal(batchLineRaw(t, rec.Body.Bytes(), i), &bl); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(batchLineRaw(t, out.Bytes(), i), &ol); err != nil {
			t.Fatal(err)
		}
		batchV, offlineV = bl.Policy, ol.Policy
		if !bytes.Equal(online[i], batchV) {
			t.Errorf("page %d: online verdict != batch verdict\n%s\n%s", i, online[i], batchV)
		}
		if !bytes.Equal(online[i], offlineV) {
			t.Errorf("page %d: online verdict != offline verdict\n%s\n%s", i, online[i], offlineV)
		}
		// The audit members must agree too, not just the verdicts.
		if !bytes.Equal(batchLines[i].Audit, offlineLines[i].Audit) {
			t.Errorf("page %d: batch audit != offline audit", i)
		}
	}
}

// batchLineRaw returns the i-th raw NDJSON line of a batch response body.
func batchLineRaw(t *testing.T, body []byte, i int) []byte {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if i >= len(lines) {
		t.Fatalf("no line %d in %d-line body", i, len(lines))
	}
	return lines[i]
}

func TestRunBatchOfflineErrors(t *testing.T) {
	var out bytes.Buffer
	in := "not json\n" + `{"url":"http://x.test/"}` + "\n" + `{"html":"<html></html>"}` + "\n"
	sum, err := RunBatch(strings.NewReader(in), &out, nil, fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 3 || sum.Completed != 1 || sum.Errors != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	lines := parseBatchLines(t, out.Bytes())
	if lines[0].Error != "invalid JSON record" || lines[1].Error == "" || lines[2].Audit == nil {
		t.Fatalf("lines = %+v", lines)
	}
}

// TestStatusWriterForwardsFlush pins the interface plumbing directly:
// the instrumentation wrapper must not hide the underlying Flusher.
func TestStatusWriterForwardsFlush(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	if _, ok := interface{}(sw).(http.Flusher); !ok {
		t.Fatal("statusWriter does not implement http.Flusher")
	}
	sw.Flush()
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
	if sw.Unwrap() != rec {
		t.Error("Unwrap must return the wrapped writer")
	}
}

// TestRunBatchMatchesServerBatch pins the offline gate to the online
// endpoint byte for byte over a whole stream — repeated pages, a url
// record, invalid JSON, a record with no html, and the summary line:
// RunBatch(pol) must answer exactly what a server preloaded with pol
// answers to POST /v1/audit/batch?policy=server. The online server's
// cache already holds the repeated page, so both its lines are hits there
// and cold audits offline.
func TestRunBatchMatchesServerBatch(t *testing.T) {
	pol, err := policy.Compile([]byte(gateYAML))
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	fmt.Fprintf(&in, `{"html":%s,"host":"example.com"}`+"\n", mustJSON(t, vulnerablePage))
	fmt.Fprintf(&in, `{"url":"http://x.test/"}`+"\n")
	fmt.Fprintf(&in, `{"html":%s,"host":"example.com"}`+"\n", mustJSON(t, vulnerablePage))
	fmt.Fprintf(&in, "not json\n")
	fmt.Fprintf(&in, `{"host":"clean.test"}`+"\n")
	fmt.Fprintf(&in, `{"html":"<html></html>","host":"clean.test"}`+"\n")

	s := newTestServer(t, Config{Policy: pol})
	if rec := postAudit(s, vulnerablePage, ""); rec.Code != 200 {
		t.Fatalf("warm-up status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/audit/batch?policy=server", bytes.NewReader(in.Bytes()))
	online := httptest.NewRecorder()
	s.ServeHTTP(online, req)
	if online.Code != 200 {
		t.Fatalf("batch status = %d", online.Code)
	}
	if hits := s.met.cacheHits.Load(); hits != 2 {
		t.Fatalf("online cacheHits = %d, want 2 (the repeated page)", hits)
	}

	var offline bytes.Buffer
	sum, err := RunBatch(bytes.NewReader(in.Bytes()), &offline, pol, fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	if want := (BatchSummary{Records: 6, Completed: 3, Errors: 3, Overall: "fail"}); sum != want {
		t.Errorf("offline summary = %+v, want %+v", sum, want)
	}
	if !bytes.Equal(online.Body.Bytes(), offline.Bytes()) {
		t.Errorf("offline stream differs from the online endpoint\nonline:\n%s\noffline:\n%s", online.Body, offline.Bytes())
	}
}

// TestRunBatchServerSelector pins the offline "server" selector: a
// {"policy":"server"} control line selects RunBatch's pol, as it selects
// cmd/serve -policy online, and with no pol it fails with the online
// message.
func TestRunBatchServerSelector(t *testing.T) {
	pol, err := policy.Compile([]byte(gateYAML))
	if err != nil {
		t.Fatal(err)
	}
	in := `{"policy":"server"}` + "\n" + fmt.Sprintf(`{"html":%s,"host":"example.com"}`, mustJSON(t, vulnerablePage)) + "\n"
	var out bytes.Buffer
	sum, err := RunBatch(strings.NewReader(in), &out, pol, fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 1 || sum.Completed != 1 || sum.Overall != "fail" {
		t.Fatalf("summary = %+v, want one completed record failing the gate", sum)
	}

	out.Reset()
	if _, err := RunBatch(strings.NewReader(in), &out, nil, fixedNow); err == nil || !strings.Contains(err.Error(), "no server policy is loaded") {
		t.Fatalf("err = %v, want no server policy is loaded", err)
	}
	lines := parseBatchLines(t, out.Bytes())
	if len(lines) != 1 || lines[0].Error != "bad policy: no server policy is loaded" {
		t.Fatalf("lines = %+v, want one bad-policy line", lines)
	}
}

// TestPolicyNullMeansNoPolicy pins that a JSON null "policy" member
// selects nothing on both doors: the single audit answers the plain
// audit, and a leading {"policy":null} batch line is an ordinary record
// (without html), not a control line.
func TestPolicyNullMeansNoPolicy(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postAudit(s, `{"html":"<p>x</p>","policy":null}`, "application/json")
	if rec.Code != 200 {
		t.Fatalf("single status = %d, body %s", rec.Code, rec.Body)
	}
	plain := postAudit(s, "<p>x</p>", "")
	if !bytes.Equal(rec.Body.Bytes(), plain.Body.Bytes()) || rec.Header().Get("X-Policy-Verdict") != "" {
		t.Errorf("policy:null answered %s, want the plain audit %s", rec.Body, plain.Body)
	}

	b := postBatch(s, `{"policy":null}`+"\n"+`{"html":"<p>x</p>"}`+"\n")
	lines := parseBatchLines(t, b.Body.Bytes())
	if len(lines) != 3 {
		t.Fatalf("lines = %+v, want 2 records + summary", lines)
	}
	if lines[0].Index != 0 || lines[0].Error != `"html" is required` {
		t.Errorf("record 0 = %+v, want the html-required error", lines[0])
	}
	if lines[1].Index != 1 || lines[1].Audit == nil || lines[1].Policy != nil {
		t.Errorf("record 1 = %+v, want a plain audit", lines[1])
	}
	if sum := lines[2].Summary; sum == nil || sum.Records != 2 || sum.Completed != 1 || sum.Errors != 1 {
		t.Errorf("summary = %+v", sum)
	}
}
