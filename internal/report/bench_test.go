package report

// One benchmark per figure of the paper's evaluation (DESIGN.md §4; the
// tables' are in the root package's bench_test.go). Each BenchmarkFigureN
// regenerates that figure: it replays the full observation stream through
// the collectors the figure plots and renders the figure. The figures'
// notes print a zero Summary: the headline numbers are the
// section-level benchmarks'. Shared across benchmarks is one materialized
// observation dataset (800 domains, all 201 weeks).
//
// Run with:  go test -bench=Figure -benchmem ./internal/report

import (
	"io"
	"sync"
	"testing"

	"clientres/internal/analysis"
	"clientres/internal/poclab"
	"clientres/internal/store"
	"clientres/internal/webgen"
)

const benchDomains = 800

var (
	benchOnce sync.Once
	benchObs  []store.Observation
	benchWeek int
)

func benchData(b *testing.B) ([]store.Observation, int) {
	b.Helper()
	benchOnce.Do(func() {
		eco := webgen.New(webgen.Config{Domains: benchDomains, Seed: 1})
		benchWeek = eco.Cfg.Weeks
		benchObs = make([]store.Observation, 0, benchDomains*benchWeek)
		analysis.TruthSource{Eco: eco}.ForEach(func(obs store.Observation) {
			benchObs = append(benchObs, obs)
		})
	})
	return benchObs, benchWeek
}

// benchFigure times fig over a study whose collectors setup makes: it fills
// in the ones fig reads and returns them to be fed the observations.
func benchFigure(b *testing.B, fig func(Study, Summary) figure, setup func(s *Study) []analysis.Collector) {
	obs, weeks := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := Study{Weeks: weeks}
		r := analysis.NewRunner(setup(&s)...)
		for _, o := range obs {
			r.Observe(o)
		}
		fig(s, Summary{}).write(io.Discard)
	}
}

func coll(s *Study) []analysis.Collector {
	s.Coll = analysis.NewCollection(s.Weeks)
	return []analysis.Collector{s.Coll}
}

func libs(s *Study) []analysis.Collector {
	s.Libs = analysis.NewLibraryStats(s.Weeks)
	return []analysis.Collector{s.Libs}
}

func vuln(s *Study) []analysis.Collector {
	s.Vuln = analysis.NewVulnPrevalence(s.Weeks)
	return []analysis.Collector{s.Vuln}
}

func flash(s *Study) []analysis.Collector {
	s.Flash = analysis.NewFlash(s.Weeks, benchDomains)
	return []analysis.Collector{s.Flash}
}

// poc runs the PoC sweep the figure plots, and no collector.
func poc(b *testing.B) func(s *Study) []analysis.Collector {
	return func(s *Study) []analysis.Collector {
		var err error
		if s.Findings, err = poclab.RunAll(); err != nil {
			b.Fatal(err)
		}
		return nil
	}
}

// BenchmarkFigure2a regenerates the weekly collection counts.
func BenchmarkFigure2a(b *testing.B) { benchFigure(b, figure2a, coll) }

// BenchmarkFigure2b regenerates the top-8 resource-usage shares.
func BenchmarkFigure2b(b *testing.B) { benchFigure(b, figure2b, coll) }

// BenchmarkFigure3 regenerates the library usage trends.
func BenchmarkFigure3(b *testing.B) { benchFigure(b, figure3, libs) }

// BenchmarkFigure4 regenerates the jQuery CVE-vs-TVV interval comparison
// (the PoC sweep over all 80 jQuery versions).
func BenchmarkFigure4(b *testing.B) { benchFigure(b, figure4, poc(b)) }

// BenchmarkFigure5 regenerates the affected-site series for the jQuery
// advisories.
func BenchmarkFigure5(b *testing.B) { benchFigure(b, figure5, vuln) }

// BenchmarkFigure6 regenerates the CVE-2020-7656 version-trend series.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, figure6, libs) }

// BenchmarkFigure7 regenerates the jQuery 1.12.4 vs 3.5+ series with the
// WordPress attribution.
func BenchmarkFigure7(b *testing.B) { benchFigure(b, figure7, libs) }

// BenchmarkFigure8 regenerates the Flash decline series.
func BenchmarkFigure8(b *testing.B) { benchFigure(b, figure8, flash) }

// BenchmarkFigure9 regenerates the WordPress usage series.
func BenchmarkFigure9(b *testing.B) {
	benchFigure(b, figure9, func(s *Study) []analysis.Collector {
		s.WordPress = analysis.NewWordPress(s.Weeks)
		return []analysis.Collector{s.WordPress}
	})
}

// BenchmarkFigure10 regenerates the Subresource Integrity series.
func BenchmarkFigure10(b *testing.B) {
	benchFigure(b, figure10, func(s *Study) []analysis.Collector {
		s.SRI = analysis.NewSRI(s.Weeks)
		return []analysis.Collector{s.SRI}
	})
}

// BenchmarkFigure11 regenerates the AllowScriptAccess series.
func BenchmarkFigure11(b *testing.B) { benchFigure(b, figure11, flash) }

// BenchmarkFigure12 regenerates the vulnerability-count CDF.
func BenchmarkFigure12(b *testing.B) { benchFigure(b, figure12, vuln) }

// BenchmarkFigure13 regenerates the non-jQuery CVE-vs-TVV comparisons.
func BenchmarkFigure13(b *testing.B) { benchFigure(b, figure13, poc(b)) }

// BenchmarkFigure14 regenerates the non-jQuery affected-site series.
func BenchmarkFigure14(b *testing.B) { benchFigure(b, figure14, vuln) }

// BenchmarkFigure15 regenerates the top-5 affected-version trends.
func BenchmarkFigure15(b *testing.B) { benchFigure(b, figure15, libs) }
