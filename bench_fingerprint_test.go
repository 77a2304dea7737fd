package clientres

// Ablations for the content-signature scanner introduced with bundle-aware
// fingerprinting. BenchmarkSignatureScan measures raw scan throughput over
// the three body populations the crawler actually fetches — banner-carrying
// bundles, banner-stripped minified bundles, and plain standalone library
// files — so the scan cost per fetched byte is a tracked number, not a
// guess. BenchmarkSignatureScanMemo measures the re-crawl case: unchanged
// script bodies hitting the content-hash scan cache instead of re-running
// the scanner. Run both with
// `go test -run '^$' -bench BenchmarkSignatureScan .`.

import (
	"strings"
	"testing"

	"clientres/internal/fingerprint"
	"clientres/internal/htmlx"
	"clientres/internal/webgen"
)

// benchScriptBodies renders week 0 of a generated population and collects
// every same-site script body a crawler would fetch from it.
func benchScriptBodies(b *testing.B, bundling webgen.Bundling) []string {
	b.Helper()
	eco := webgen.New(webgen.Config{Domains: 150, Weeks: 4, Seed: 13, Bundling: bundling})
	var bodies []string
	for i := range eco.Sites {
		html, status := eco.PageHTML(i, 0)
		if status != 200 {
			continue
		}
		for _, src := range htmlx.ScriptSrcs(html) {
			if strings.HasPrefix(src, "//") || strings.Contains(src, "://") {
				continue
			}
			if body, ok := eco.AssetJS(i, 0, src); ok && body != "" {
				bodies = append(bodies, body)
			}
		}
	}
	if len(bodies) == 0 {
		b.Fatal("no script bodies generated")
	}
	return bodies
}

// BenchmarkSignatureScan: scanner throughput (MB/s via SetBytes) per body
// population. "bundled" carries banners, "minified" strips them — the
// banner-anchor path drops out and the scan is code-anchors only.
func BenchmarkSignatureScan(b *testing.B) {
	populations := []struct {
		name     string
		bundling webgen.Bundling
	}{
		{"plain", webgen.Bundling{}},
		{"bundled", webgen.Bundling{Fraction: 1, BannerP: 1}},
		{"minified", webgen.Bundling{Fraction: 1, MinifyP: 1}},
	}
	for _, pop := range populations {
		b.Run(pop.name, func(b *testing.B) {
			bodies := benchScriptBodies(b, pop.bundling)
			var bytes int64
			for _, body := range bodies {
				bytes += int64(len(body))
			}
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, body := range bodies {
					_ = fingerprint.ScanScript(body)
				}
			}
		})
	}
}

// BenchmarkSignatureScanMemo: one simulated re-crawl week of bundled script
// bodies, unchanged from the warmup pass — the dominant case under the
// paper's 531-day mean update delay. "uncached" re-runs the scanner per
// body; "memo" hits the content-hash scan cache.
func BenchmarkSignatureScanMemo(b *testing.B) {
	bodies := benchScriptBodies(b, webgen.Bundling{Fraction: 1, MinifyP: 0.5, BannerP: 0.6, SourceMapP: 0.35})
	var bytes int64
	for _, body := range bodies {
		bytes += int64(len(body))
	}
	b.Run("uncached", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				_ = fingerprint.ScanScript(body)
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		memo := fingerprint.NewMemo(0)
		for _, body := range bodies {
			_ = memo.ScanScript(body) // warm: the previous week's crawl
		}
		b.SetBytes(bytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				_ = memo.ScanScript(body)
			}
		}
	})
}
