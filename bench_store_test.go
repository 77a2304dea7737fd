package clientres

// The two store/fingerprint ablations the study benchmark (go run ./bench)
// has no twin for. BenchmarkStoreDecodeSegment isolates the parallelism
// argument of the segmented store on a single CPU: it decodes ONE segment
// of an N-segment archive, showing per-segment replay cost shrink
// proportionally with segment count — the unit of work a parallel replay
// distributes (run with -benchmem: the delta decoder skips JSON entirely
// for week-over-week unchanged records). BenchmarkFingerprintMemo measures
// the re-crawl fingerprinting cost with and without the content-hash memo
// — the week-over-week unchanged-page case the paper's 531-day mean update
// delay makes dominant. Whole-archive write and read cost, archive size
// and commit latency are the bench's direct-write and store-analyze
// workloads. Run: go test -run '^$' -bench 'StoreDecodeSegment|FingerprintMemo' -benchmem .

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"clientres/internal/fingerprint"
	"clientres/internal/store"
	"clientres/internal/webgen"
)

// benchStores materializes the benchmark observation stream as stores of
// several segment counts, once per process.
var (
	benchStoreOnce sync.Once
	benchStoreDir  string
	benchStoreErr  error

	benchSegmentCounts = []int{1, 2, 4, 8}
)

func benchStorePath(b *testing.B, segs int) string {
	obs, _ := benchData(b)
	benchStoreOnce.Do(func() { benchStoreDir, benchStoreErr = writeBenchStores(obs) })
	if benchStoreErr != nil {
		b.Fatal(benchStoreErr)
	}
	return filepath.Join(benchStoreDir, fmt.Sprintf("obs-%d.store", segs))
}

func writeBenchStores(obs []store.Observation) (string, error) {
	// Not b.TempDir: the archives must survive this benchmark's cleanup so
	// -count=N reruns (and future benchmarks) can reuse them; the OS reaps
	// the temp dir.
	dir, err := os.MkdirTemp("", "clientres-bench-store-")
	if err != nil {
		return "", err
	}
	for _, segs := range benchSegmentCounts {
		sw, err := store.CreateSegmented(filepath.Join(dir, fmt.Sprintf("obs-%d.store", segs)), segs)
		if err != nil {
			return "", err
		}
		for _, o := range obs {
			if err := sw.Write(o); err != nil {
				return "", err
			}
		}
		if err := sw.Close(); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// BenchmarkStoreDecodeSegment decodes segment 0 of an N-segment archive —
// the unit of work one goroutine owns in a parallel replay.
func BenchmarkStoreDecodeSegment(b *testing.B) {
	for _, segs := range benchSegmentCounts {
		b.Run(fmt.Sprintf("v3/segments=%d", segs), func(b *testing.B) {
			dir := benchStorePath(b, segs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := store.ForEachSegment(dir, 0, func(store.Observation) error {
					n++
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("segment 0 replayed empty")
				}
			}
		})
	}
}

// BenchmarkFingerprintMemo measures one simulated re-crawl week: every
// page fingerprinted, bodies unchanged from the warmup pass — the
// paper's dominant case. "uncached" runs the full tokenizer + ruleset
// per page; "memo" hits the per-shard content-hash cache.
func BenchmarkFingerprintMemo(b *testing.B) {
	eco := webgen.New(webgen.Config{Domains: 300, Seed: 3})
	type page struct{ html, host string }
	var pages []page
	var bytes int64
	for i := range eco.Sites {
		if html, status := eco.PageHTML(i, 100); status == 200 {
			pages = append(pages, page{html, eco.Sites[i].Domain.Name})
			bytes += int64(len(html))
		}
	}
	if len(pages) == 0 {
		b.Fatal("no accessible pages")
	}
	b.Run("uncached", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			for _, p := range pages {
				_ = fingerprint.Page(p.html, p.host)
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		memo := fingerprint.NewMemo(0)
		for _, p := range pages {
			_ = memo.Page(p.html, p.host) // warm: the previous week's crawl
		}
		b.SetBytes(bytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range pages {
				_ = memo.Page(p.html, p.host)
			}
		}
	})
}
