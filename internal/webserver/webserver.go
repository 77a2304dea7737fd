// Package webserver serves the synthetic web ecosystem over real HTTP.
//
// The paper's crawler fetched live landing pages with net/http; this server
// is the other end of that wire for the reproduction. Each generated domain
// is addressable at /w/{week}/{domain}/ so a single listener can serve every
// site at every snapshot week. Dead domains abort the TCP connection (the
// closest stand-in for NXDOMAIN/refused), flaky weeks answer with their
// 4xx/5xx status, and anti-bot sites return the paper's observed
// HTTP-200-but-"Not allowed" page.
package webserver

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"clientres/internal/webgen"
)

// Server serves one ecosystem.
type Server struct {
	eco *webgen.Ecosystem
	// index maps domain name to site index.
	index map[string]int
	// Latency, when non-zero, delays every response — useful for crawler
	// timeout tests.
	Latency time.Duration
	// Chaos, when non-nil, injects deterministic per-(domain, week) faults
	// into otherwise-alive responses (see Chaos). Set before serving.
	Chaos *Chaos
}

// New builds a Server for an ecosystem.
func New(eco *webgen.Ecosystem) *Server {
	idx := make(map[string]int, len(eco.Sites))
	for i, s := range eco.Sites {
		idx[s.Domain.Name] = i
	}
	return &Server{eco: eco, index: idx}
}

// Start serves s on a private loopback listener and returns its base URL
// and the function that shuts the server down and waits for it to exit.
func (s *Server) Start() (baseURL string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: s}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}, nil
}

// PageURL returns the request path serving a domain at a snapshot week.
func PageURL(week int, domain string) string {
	return fmt.Sprintf("/w/%d/%s/", week, domain)
}

// AssetURL returns the request path serving a same-site asset of a domain
// at a snapshot week. src is the root-relative src attribute as rendered
// on the page ("/assets/bundle.abc.js").
func AssetURL(week int, domain, src string) string {
	if !strings.HasPrefix(src, "/") {
		src = "/" + src
	}
	return fmt.Sprintf("/w/%d/%s%s", week, domain, src)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.Latency > 0 {
		time.Sleep(s.Latency)
	}
	week, domain, rest, ok := parsePath(r.URL.Path)
	if !ok {
		http.NotFound(w, r)
		return
	}
	i, ok := s.index[domain]
	if !ok {
		// Unknown domain: behave like a dead host.
		abort(w)
		return
	}
	if week < 0 || week >= s.eco.Cfg.Weeks {
		http.Error(w, "week out of range", http.StatusBadRequest)
		return
	}
	if rest != "" {
		// Same-site asset (script body). Chaos faults stay page-only: the
		// fault drill targets the landing-page fetch path, and the chaos
		// schedule is keyed per (domain, week), not per resource.
		s.serveAsset(w, r, i, week, rest)
		return
	}
	html, status := s.eco.PageHTML(i, week)
	if status == 0 {
		abort(w)
		return
	}
	if f := s.Chaos.FaultFor(week, domain); f != FaultNone {
		s.serveFault(w, r, f, html, status)
		return
	}
	writePage(w, html, status)
}

// serveAsset answers a same-site script request from the generator's
// asset resolver, without rendering the page. Dead weeks abort like the
// page does; inaccessible weeks and anything the page does not reference
// are a plain 404.
func (s *Server) serveAsset(w http.ResponseWriter, r *http.Request, i, week int, rest string) {
	if s.eco.Dead(i, week) {
		abort(w)
		return
	}
	body, ok := s.eco.AssetJS(i, week, rest)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/javascript; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, body)
}

func writePage(w http.ResponseWriter, html string, status int) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(status)
	_, _ = io.WriteString(w, html)
}

// abort drops the connection without an HTTP response, simulating a dead
// domain (refused connection / NXDOMAIN). When the connection cannot be
// hijacked it answers a bare 502 instead — never leave the request
// unanswered, or the client hangs until its own timeout.
func abort(w http.ResponseWriter) {
	if !hijackClose(w, true) {
		w.WriteHeader(http.StatusBadGateway)
	}
}

// hijackClose takes over the connection and closes it — with a TCP RST
// (SetLinger(0)) when reset is true, so client reads fail immediately —
// reporting false when hijacking is unavailable or fails.
func hijackClose(w http.ResponseWriter, reset bool) bool {
	hj, ok := w.(http.Hijacker)
	if !ok {
		return false
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return false
	}
	if reset {
		if tcp, ok := conn.(*net.TCPConn); ok {
			_ = tcp.SetLinger(0)
		}
	}
	_ = conn.Close()
	return true
}

// parsePath splits "/w/{week}/{domain}[/asset...]" into its parts; rest is
// the root-relative asset path ("" for the landing page itself).
func parsePath(path string) (week int, domain, rest string, ok bool) {
	parts := strings.SplitN(strings.TrimPrefix(path, "/"), "/", 4)
	if len(parts) < 3 || parts[0] != "w" {
		return 0, "", "", false
	}
	week, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, "", "", false
	}
	if len(parts) == 4 && strings.Trim(parts[3], "/") != "" {
		rest = "/" + strings.TrimSuffix(parts[3], "/")
	}
	return week, parts[2], rest, true
}
