package webserver

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"clientres/internal/htmlx"
	"clientres/internal/webgen"
)

// sameSiteSrcs returns the srcs of a page's scripts that the site itself
// serves; generated pages write every cross-origin src as an absolute URL.
func sameSiteSrcs(html string) []string {
	var out []string
	for _, src := range htmlx.ScriptSrcs(html) {
		if !strings.Contains(src, "://") {
			out = append(out, src)
		}
	}
	return out
}

// TestAssetPathContract requests, over a live listener, every same-site
// script src any week of a site references, at every week of that site: a
// dead week fails at the connection level exactly as the page does, an
// inaccessible week or an unreferenced path is a 404, and a live week
// serves AssetJS's bytes. Dead holds exactly when PageHTML returns status 0.
func TestAssetPathContract(t *testing.T) {
	eco := webgen.New(webgen.Config{Domains: 40, Weeks: 8, Seed: 5, Bundling: webgen.DefaultBundling(0.5)})
	base, stop, err := New(eco).Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string) (int, string, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), err
	}

	var dead, inaccessible, served int
	for i, site := range eco.Sites {
		name := site.Domain.Name
		srcs := map[string]bool{}
		for w := 0; w < eco.Cfg.Weeks; w++ {
			html, _ := eco.PageHTML(i, w)
			for _, src := range sameSiteSrcs(html) {
				srcs[src] = true
			}
		}
		srcs["/assets/bundle.0000000000000000.js"] = true
		srcs["/js/not-referenced.js"] = true

		for w := 0; w < eco.Cfg.Weeks; w++ {
			_, status := eco.PageHTML(i, w)
			if eco.Dead(i, w) != (status == 0) {
				t.Fatalf("%s week %d: Dead = %v, PageHTML status %d", name, w, eco.Dead(i, w), status)
			}
			_, _, pageErr := get(PageURL(w, name))
			if (pageErr != nil) != (status == 0) {
				t.Fatalf("%s week %d: page error %v, PageHTML status %d", name, w, pageErr, status)
			}
			accessible := eco.Truth(i, w).Accessible
			switch {
			case status == 0:
				dead++
			case !accessible:
				inaccessible++
			}
			for src := range srcs {
				code, body, err := get(AssetURL(w, name, src))
				if status == 0 {
					if err == nil {
						t.Fatalf("%s week %d %s: dead week answered %d", name, w, src, code)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s week %d %s: %v", name, w, src, err)
				}
				want, ok := eco.AssetJS(i, w, src)
				switch {
				case !ok && code != http.StatusNotFound:
					t.Fatalf("%s week %d %s: status %d for a path the page does not serve, want 404", name, w, src, code)
				case ok && !accessible:
					t.Fatalf("%s week %d %s: AssetJS resolves on an inaccessible week", name, w, src)
				case ok && (code != http.StatusOK || body != want):
					t.Fatalf("%s week %d %s: status %d, %d bytes; want 200 with AssetJS's %d bytes", name, w, src, code, len(body), len(want))
				case ok:
					served++
				}
			}
		}
	}
	if dead == 0 || inaccessible == 0 || served == 0 {
		t.Fatalf("the ecosystem exercises too little: %d dead, %d inaccessible site-weeks, %d assets served", dead, inaccessible, served)
	}
}

// BenchmarkServeRequestMix serves, with no sockets, the requests a crawl of
// one 200-domain week makes: each live page, then each of its same-site
// script srcs. It reports microseconds and allocations per request.
func BenchmarkServeRequestMix(b *testing.B) {
	const week = 10
	eco := webgen.New(webgen.Config{Domains: 200, Weeks: 20, Seed: 1, Bundling: webgen.DefaultBundling(0.3)})
	srv := New(eco)
	var reqs []*http.Request
	for i, site := range eco.Sites {
		html, status := eco.PageHTML(i, week)
		if status == 0 {
			continue
		}
		reqs = append(reqs, httptest.NewRequest(http.MethodGet, PageURL(week, site.Domain.Name), nil))
		for _, src := range sameSiteSrcs(html) {
			reqs = append(reqs, httptest.NewRequest(http.MethodGet, AssetURL(week, site.Domain.Name, src), nil))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, r := range reqs {
			srv.ServeHTTP(httptest.NewRecorder(), r)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(len(reqs))
	b.ReportMetric(float64(b.Elapsed().Microseconds())/total, "us/req")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/req")
}
