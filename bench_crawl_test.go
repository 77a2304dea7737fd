package clientres

// Crawl-path throughput ablation: BenchmarkCrawlWeek crawls one full
// synthetic week over loopback HTTP with the resilience layer off (plain)
// and on (polite), reporting pages/s and the crawler's own p50/p99 fetch
// latency. The polite variant prices the politeness/breaker bookkeeping on
// the hot path — on a fault-free ecosystem it must track the plain variant
// closely, since per-host pressure never builds when every host is hit
// once per week. Run both benchmarks of this file with
// `go test -run '^$' -bench 'BenchmarkCrawlWeek|BenchmarkDistCrawl' .`.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"clientres/internal/crawler"
	"clientres/internal/distcrawl"
	"clientres/internal/webgen"
	"clientres/internal/webserver"
)

func BenchmarkCrawlWeek(b *testing.B) {
	for _, mode := range []struct {
		name   string
		polite bool
	}{{"plain", false}, {"polite", true}} {
		b.Run(mode.name, func(b *testing.B) {
			eco := webgen.New(webgen.Config{Domains: 300, Seed: 9})
			srv := httptest.NewServer(webserver.New(eco))
			defer srv.Close()
			cr := crawler.New(crawler.Config{
				BaseURL: srv.URL, Workers: 32,
				Resilience: crawler.Resilience{
					Enabled: mode.polite,
					// Successive iterations re-crawl the same week, so a
					// real gap would meter the benchmark, not the crawler.
					MinGap: time.Microsecond,
				},
			})
			domains := make([]string, len(eco.Sites))
			for i, s := range eco.Sites {
				domains[i] = s.Domain.Name
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cr.CrawlWeek(context.Background(), i%eco.Cfg.Weeks, domains, func(crawler.Page) {}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			pages := float64(b.N) * float64(len(domains))
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(pages/sec, "pages/s")
			}
			m := cr.Metrics()
			b.ReportMetric(float64(m.FetchP50.Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(m.FetchP99.Nanoseconds()), "p99-ns")
		})
	}
}

// BenchmarkDistCrawl prices the distributed plane end to end: one
// coordinator and 1/2/4 workers crawl the same small study to completion
// (lease round trips, per-week store commits, heartbeats — everything but
// the merge), reporting whole-run pages/s. The workers-1 variant is the
// coordination overhead floor against BenchmarkCrawlWeek; 2 and 4 show
// how much of the serial crawl the partition fan-out wins back.
func BenchmarkDistCrawl(b *testing.B) {
	const domains, weeks, partitions = 120, 4, 4
	for _, nw := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", nw), func(b *testing.B) {
			var agg crawler.MetricsSnapshot
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				spec := distcrawl.RunSpec{
					Domains: domains, Weeks: weeks, Seed: 9,
					Partitions: partitions,
					Dir:        b.TempDir(),
					LeaseTTL:   30 * time.Second,
				}
				coord, err := distcrawl.NewCoordinator(spec)
				if err != nil {
					b.Fatal(err)
				}
				srv := httptest.NewServer(coord.Handler())
				ctx, cancel := context.WithCancel(context.Background())
				b.StartTimer()

				errc := make(chan error, nw)
				for w := 0; w < nw; w++ {
					go func(w int) {
						errc <- (&distcrawl.Worker{
							ID:           fmt.Sprintf("bench-%d", w),
							Coord:        &distcrawl.Client{BaseURL: srv.URL},
							CrawlWorkers: 32 / nw,
						}).Run(ctx)
					}(w)
				}
				for w := 0; w < nw; w++ {
					if err := <-errc; err != nil && err != context.Canceled {
						b.Fatal(err)
					}
				}
				if !coord.Done() {
					b.Fatal("workers exited before the run completed")
				}

				b.StopTimer()
				agg.Merge(coord.Status().Metrics)
				cancel()
				srv.Close()
				b.StartTimer()
			}
			b.StopTimer()
			pages := float64(b.N) * domains * weeks
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(pages/sec, "pages/s")
			}
			b.ReportMetric(float64(agg.FetchP50.Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(agg.FetchP99.Nanoseconds()), "p99-ns")
		})
	}
}
