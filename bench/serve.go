package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"clientres/internal/crawler"
	"clientres/internal/policy"
	"clientres/internal/service"
)

// serverPolicy is the policy the audit service is started with, the kind of
// gate a CI job would ship; every request asks for it (?policy=server).
const serverPolicy = `name: bench gate
rules:
  - name: stale-high
    scope: finding
    when: severity == "high" && age(disclosed) > 90d
  - name: missing-sri
    level: warn
    when: missing_sri > 0
  - name: discontinued-library
    level: warn
    scope: library
    when: discontinued
  - name: insecure-flash
    when: insecure_flash
`

// auditClock is the clock injected into the service, so replies are a pure
// function of the page and can be compared byte for byte.
var auditClock = time.Date(2026, 1, 2, 0, 0, 0, 0, time.UTC)

// auditPage is one request the load generator can send.
type auditPage struct {
	host string
	html string
	url  string
}

// serveInst is serve-audit after set-up: the audit service behind a real
// listener, a hot set that fits the response cache (requested once, so it
// is resident) and a cold pool that does not.
type serveInst struct {
	e         *env
	study     *study
	pol       *policy.Policy
	hot, cold []auditPage
	svc       *service.Server
	base      string
	stop      func()
	clients   []*http.Client
	passes    int
	// seen is the load generator's own totals since the server started;
	// they must equal the server's counters.
	seen tallies
}

// tallies counts replies the way the server's /metrics does.
type tallies struct {
	sent, hits, misses, shed int64
}

func (t *tallies) add(r reply) {
	t.sent++
	switch {
	case r.status == http.StatusServiceUnavailable || r.status == http.StatusTooManyRequests:
		t.shed++
	case r.cache == "hit":
		t.hits++
	case r.cache == "miss":
		t.misses++
	}
}

func (t *tallies) merge(o tallies) {
	t.sent, t.hits, t.misses, t.shed = t.sent+o.sent, t.hits+o.hits, t.misses+o.misses, t.shed+o.shed
}

func setupServeAudit(e *env, tr *tracer) (instance, error) {
	sh := e.sh
	s := &serveInst{e: e}
	var err error
	if s.pol, err = policy.Compile([]byte(serverPolicy)); err != nil {
		return nil, err
	}
	// Pages are distinct sites of one generated population at week 0 (of
	// the crawl study's weeks; the generator needs more than one): the
	// cache keys on (content, host), so a site counts once. Generate until
	// enough of them answer with a real page.
	need := sh.hotPages + sh.coldPages
	var pages []auditPage
	for domains := need * 5 / 4; len(pages) < need; domains *= 2 {
		s.study = newStudy(tr, domains, sh.crawlWeeks, e.seed, false)
		pages = pages[:0]
		id := tr.start(0, "webgen", "render")
		var size int64
		for i := 0; i < domains && len(pages) < need; i++ {
			html, status := s.study.eco.PageHTML(i, 0)
			if status == http.StatusOK && len(html) >= 400 {
				host := s.study.names[i]
				pages = append(pages, auditPage{host: host, html: html})
				size += int64(len(html))
			}
		}
		tr.end(id, int64(len(pages)), size)
	}
	s.hot, s.cold = pages[:sh.hotPages], pages[sh.hotPages:]

	s.svc = service.New(service.Config{Policy: s.pol, Now: func() time.Time { return auditClock }})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	for i := range pages {
		pages[i].url = s.base + "/v1/audit?policy=server&host=" + url.QueryEscape(pages[i].host)
	}
	done := make(chan error, 1)
	var shutdown func()
	if tr == nil {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { done <- s.svc.Serve(ctx, ln) }()
		shutdown = cancel
	} else {
		// Serve's own http.Server cannot be wrapped, so a traced run
		// serves the same handler from one it can put a span around.
		hs := &http.Server{Handler: &tracedHandler{inner: s.svc, tr: tr, layer: "service",
			classify: func(h http.Header) string { return "handler_" + h.Get("X-Cache") }}}
		go func() { done <- hs.Serve(ln) }()
		shutdown = func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = hs.Shutdown(ctx)
			s.svc.Close()
		}
	}
	s.stop = func() {
		for _, c := range s.clients {
			c.CloseIdleConnections()
		}
		shutdown()
		if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bench: serve-audit: server:", err)
		}
	}
	for c := 0; c < sh.serveClients; c++ {
		// One connection per closed-loop client.
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}

	// Warm: the hot set is requested once, so the timed region starts with
	// it resident.
	for i := range s.hot {
		if _, err := s.request(s.clients[0], &s.hot[i]); err != nil {
			s.stop()
			return nil, err
		}
	}
	if err := s.checkSample(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *serveInst) wantSHA() string { return "" }
func (s *serveInst) close()          { s.stop() }

// reply is what one request came back with.
type reply struct {
	status int
	cache  string // X-Cache: "hit", "miss" or ""
	body   []byte
}

// request sends one audit and tallies it in the generator's totals.
func (s *serveInst) request(hc *http.Client, pg *auditPage) (reply, error) {
	r, err := post(hc, pg)
	if err != nil {
		return r, err
	}
	s.seen.add(r)
	return r, nil
}

func post(hc *http.Client, pg *auditPage) (reply, error) {
	resp, err := hc.Post(pg.url, "text/html", strings.NewReader(pg.html))
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body}, err
}

// expected computes in-process the bytes the service must answer a page
// with: the audit as of the injected clock, the policy verdict on it, and
// the envelope the service wraps the two in.
func (s *serveInst) expected(pg *auditPage) ([]byte, error) {
	audit, err := json.Marshal(service.Audit(pg.html, pg.host, auditClock))
	if err != nil {
		return nil, err
	}
	// The service evaluates the policy on the serialized audit, which may
	// have come from its cache; do the same.
	var resp service.AuditResponse
	if err := json.Unmarshal(audit, &resp); err != nil {
		return nil, err
	}
	verdict, err := json.Marshal(s.pol.Eval(resp.PolicyDoc(auditClock)))
	if err != nil {
		return nil, err
	}
	return []byte(`{"audit":` + string(audit) + `,"policy":` + string(verdict) + "}\n"), nil
}

// samplePages picks the pages the byte-identity check and the layer probes
// use: half from the hot set, half from the cold pool.
func (s *serveInst) samplePages() []*auditPage {
	var out []*auditPage
	n := s.e.sh.samplePages / 2
	for i := 0; i < n && i < len(s.hot); i++ {
		out = append(out, &s.hot[i*len(s.hot)/n])
	}
	for i := 0; i < n && i < len(s.cold); i++ {
		out = append(out, &s.cold[i*len(s.cold)/n])
	}
	return out
}

// checkSample is the reply gate: every sampled page, answered from the
// cache (hot) or audited cold, must be byte-identical to the in-process
// audit and verdict.
func (s *serveInst) checkSample() error {
	for _, pg := range s.samplePages() {
		r, err := s.request(s.clients[0], pg)
		if err != nil {
			return err
		}
		want, err := s.expected(pg)
		if err != nil {
			return err
		}
		if r.status != http.StatusOK || !bytes.Equal(r.body, want) {
			return gateError{fmt.Sprintf("serve-audit: reply for %s (status %d, X-Cache %q) differs from the in-process audit and verdict",
				pg.host, r.status, r.cache)}
		}
	}
	return nil
}

// scrape reads the service's own counters from /metrics.
func (s *serveInst) scrape() (map[string]int64, error) {
	resp, err := s.clients[0].Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if sp := strings.LastIndexByte(line, ' '); sp > 0 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseInt(line[sp+1:], 10, 64); err == nil {
				out[line[:sp]] = v
			}
		}
	}
	return out, sc.Err()
}

// reconcile is the counter gate: what the generator sent and saw must equal
// what the server counted, exactly.
func (s *serveInst) reconcile() error {
	m, err := s.scrape()
	if err != nil {
		return err
	}
	shed := m[`clientres_audit_shed_total{reason="queue_full"}`] + m[`clientres_audit_shed_total{reason="rate_limited"}`]
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"requests", m[`clientres_http_requests_total{endpoint="audit"}`], s.seen.sent},
		{"cache hits", m[`clientres_audit_cache_hits_total`], s.seen.hits},
		{"cache misses", m[`clientres_audit_cache_misses_total`], s.seen.misses},
		{"shed", shed, s.seen.shed},
	} {
		if c.got != c.want {
			return gateError{fmt.Sprintf("serve-audit: server counted %d %s, the load generator %d", c.got, c.name, c.want)}
		}
	}
	return nil
}

func (s *serveInst) pass() (pass, error) { return s.loop(nil) }

func (s *serveInst) tracedPass(tr *tracer) (pass, error) { return s.loop(tr) }

// loop is the timed region: every client sends its batch back to back,
// each request only after the previous reply (audit callers — CI gates,
// scripts — wait for the answer).
func (s *serveInst) loop(tr *tracer) (pass, error) {
	sh := s.e.sh
	s.passes++
	type result struct {
		lat         []float64
		seen        tallies
		fail, bytes int64
		err         error
	}
	results := make([]result, len(s.clients))
	before := s.seen
	var p pass
	root := tr.start(0, "core", "run")
	err := p.timed(func() error {
		var wg sync.WaitGroup
		for c := range s.clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := &results[c]
				r.lat = make([]float64, 0, sh.serveBatch)
				rng := rand.New(rand.NewSource(s.e.seed<<20 ^ int64(s.passes)<<8 ^ int64(c)))
				for k := 0; k < sh.serveBatch; k++ {
					pg := &s.cold[rng.Intn(len(s.cold))]
					if rng.Float64() < sh.hotShare {
						pg = &s.hot[rng.Intn(len(s.hot))]
					}
					id := tr.start(root, "service", "client_request")
					t0 := time.Now()
					rep, err := post(s.clients[c], pg)
					r.lat = append(r.lat, ms(time.Since(t0)))
					tr.end(id, 1, int64(len(rep.body)))
					if err != nil {
						r.err = err
						return
					}
					r.bytes += int64(len(rep.body))
					r.seen.add(rep)
					if rep.status != http.StatusOK {
						r.fail++
					}
				}
			}(c)
		}
		wg.Wait()
		return nil
	})
	for _, r := range results {
		if r.err != nil && err == nil {
			err = r.err
		}
		p.ops += int64(len(r.lat))
		p.failed += r.fail
		p.bytes += r.bytes
		p.requestMS = append(p.requestMS, r.lat...)
		s.seen.merge(r.seen)
	}
	tr.end(root, p.ops, p.bytes)
	if err != nil {
		return p, err
	}
	tr.counter(root, "service", "cache_hits", s.seen.hits-before.hits, 0)
	tr.counter(root, "service", "cache_misses", s.seen.misses-before.misses, 0)
	return p, s.reconcile()
}

// probe measures the layers of a cold audit alone on the sampled pages:
// tokenize, fingerprint, advisory match, audit, JSON encode, policy.
func (s *serveInst) probe(tr *tracer) error {
	var pages []crawler.Page
	for _, pg := range s.samplePages() {
		pages = append(pages, crawler.Page{Domain: pg.host, Week: 0, Status: http.StatusOK, Body: pg.html})
		var resp service.AuditResponse
		tr.call(0, "service", "audit_cold", 1, int64(len(pg.html)), func() {
			resp = service.Audit(pg.html, pg.host, auditClock)
		})
		var out []byte
		tr.call(0, "service", "encode", 1, 0, func() { out, _ = json.Marshal(resp) })
		tr.call(0, "policy", "eval", 1, int64(len(out)), func() { s.pol.Eval(resp.PolicyDoc(auditClock)) })
	}
	probePages(tr, s.study, pages)
	return nil
}
