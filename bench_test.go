package clientres

// One benchmark per table of the paper's evaluation, and per section-level
// measurement (see DESIGN.md §4 for the experiment index; the figures'
// benchmarks are in internal/report). Each BenchmarkTableN regenerates that
// experiment: it replays the full observation stream through the
// experiment's collector(s) and renders the paper's output. Shared across
// benchmarks is a single materialized observation dataset (one synthetic
// population, all 201 weeks), so per-experiment costs are comparable.
//
// Run with:  go test -bench=. -benchmem

import (
	"io"
	"sync"
	"testing"

	"clientres/internal/analysis"
	"clientres/internal/fingerprint"
	"clientres/internal/poclab"
	"clientres/internal/report"
	"clientres/internal/store"
	"clientres/internal/webgen"
)

// benchDomains scales the benchmark dataset. 800 domains × 201 weeks =
// 160,800 observations per replay.
const benchDomains = 800

var (
	benchOnce sync.Once
	benchEco  *webgen.Ecosystem
	benchObs  []store.Observation
)

func benchData(b *testing.B) ([]store.Observation, int) {
	b.Helper()
	benchOnce.Do(func() {
		benchEco = webgen.New(webgen.Config{Domains: benchDomains, Seed: 1})
		src := analysis.TruthSource{Eco: benchEco}
		benchObs = make([]store.Observation, 0, benchDomains*benchEco.Cfg.Weeks)
		src.ForEach(func(obs store.Observation) {
			benchObs = append(benchObs, obs)
		})
	})
	return benchObs, benchEco.Cfg.Weeks
}

func replay(obs []store.Observation, collectors ...analysis.Collector) {
	r := analysis.NewRunner(collectors...)
	for _, o := range obs {
		r.Observe(o)
	}
}

// --- Tables ---

// BenchmarkTable1 regenerates the top-15 library landscape.
func BenchmarkTable1(b *testing.B) {
	obs, weeks := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		libs := analysis.NewLibraryStats(weeks)
		replay(obs, libs)
		report.Table1(io.Discard, libs.Table1())
	}
}

// BenchmarkTable2 regenerates the advisory validation table: the PoC
// version-validation experiment plus the affected-site measurement.
func BenchmarkTable2(b *testing.B) {
	obs, weeks := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vuln := analysis.NewVulnPrevalence(weeks)
		replay(obs, vuln)
		findings, err := poclab.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		report.Table2(io.Discard, findings, vuln)
	}
}

// BenchmarkTable3 renders the browser/Flash-support matrix.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.Table3(io.Discard)
	}
}

// BenchmarkTable4 regenerates the WordPress CVE exposure table.
func BenchmarkTable4(b *testing.B) {
	obs, weeks := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wp := analysis.NewWordPress(weeks)
		replay(obs, wp)
		report.Table4(io.Discard, wp.Table4())
	}
}

// BenchmarkTable5 regenerates the top-CDNs-per-library table.
func BenchmarkTable5(b *testing.B) {
	obs, weeks := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		libs := analysis.NewLibraryStats(weeks)
		replay(obs, libs)
		report.Table5(io.Discard, libs)
	}
}

// BenchmarkTable6 regenerates the version-control-hosted inclusion table.
func BenchmarkTable6(b *testing.B) {
	obs, weeks := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sri := analysis.NewSRI(weeks)
		replay(obs, sri)
		report.Table6(io.Discard, sri)
	}
}

// --- Section-level measurements without a figure of their own ---

// BenchmarkVulnPrevalence regenerates the Section 6.2 headline (41.2 % of
// sites carry ≥1 vulnerability).
func BenchmarkVulnPrevalence(b *testing.B) {
	obs, weeks := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vuln := analysis.NewVulnPrevalence(weeks)
		replay(obs, vuln)
		_ = vuln.MeanVulnerableShare(false)
		_ = vuln.MeanVulnerableShare(true)
	}
}

// BenchmarkUpdateDelay regenerates the Section 7 window-of-vulnerability
// measurement (531.2 / 701.2 days).
func BenchmarkUpdateDelay(b *testing.B) {
	obs, weeks := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delay := analysis.NewUpdateDelay(weeks)
		replay(obs, delay)
		_ = delay.Result(false, false)
		_ = delay.Result(true, true)
	}
}

// BenchmarkDiscontinued regenerates the Section 6.3 discontinued-library
// and migration measurement.
func BenchmarkDiscontinued(b *testing.B) {
	obs, weeks := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disc := analysis.NewDiscontinued(weeks)
		replay(obs, disc)
		_, _ = disc.MigrationStats()
	}
}

// --- Substrate throughput ---

// BenchmarkFingerprintPage measures detection throughput on a rendered
// landing page.
func BenchmarkFingerprintPage(b *testing.B) {
	eco := webgen.New(webgen.Config{Domains: 50, Seed: 3})
	var html, host string
	for i := range eco.Sites {
		if t := eco.Truth(i, 50); t.Accessible && len(t.Libs) >= 3 {
			html, _ = eco.PageHTML(i, 50)
			host = eco.Sites[i].Domain.Name
			break
		}
	}
	if html == "" {
		b.Fatal("no suitable page")
	}
	b.SetBytes(int64(len(html)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fingerprint.Page(html, host)
	}
}

// BenchmarkRenderPage measures the generator's page-rendering throughput.
func BenchmarkRenderPage(b *testing.B) {
	eco := webgen.New(webgen.Config{Domains: 50, Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = eco.PageHTML(i%50, (i*7)%eco.Cfg.Weeks)
	}
}

// BenchmarkCrawlWeek (end-to-end crawl throughput over real HTTP) lives in
// bench_crawl_test.go, where it ablates the resilience layer (plain vs
// polite) and reports fetch-latency quantiles.

// BenchmarkPoCSweep measures one full PoC validation sweep (the paper's 85
// jQuery environments and every other catalog).
func BenchmarkPoCSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := poclab.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}
