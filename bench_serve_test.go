package clientres

// Serve-path load test: BenchmarkServeAudit drives the online audit
// service closed-loop over loopback HTTP — cold (response cache disabled:
// every request fingerprints and matches) and warm (cache enabled, the
// page working set fits: steady state is all hits) — reporting req/s and
// the service's own p50/p99 audit latency scraped from /metrics. The
// benchmark is also a correctness gate: it asserts byte-identical cold vs
// cached responses and reconciles the server's request/cache/shed counters
// exactly against the requests the load generator sent. Run it with
// `go test -run '^$' -bench BenchmarkServeAudit .`.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clientres/internal/service"
)

// benchPages builds the working set: distinct pages mixing vulnerable and
// clean library inclusions, small enough to stay cache-resident in warm
// mode.
func benchPages(n int) []string {
	pages := make([]string, n)
	for i := range pages {
		pages[i] = fmt.Sprintf(`<!DOCTYPE html><html><head>
<script src="https://code.jquery.com/jquery-1.%d.4.min.js"></script>
<script src="https://maxcdn.bootstrapcdn.com/bootstrap/3.3.%d/js/bootstrap.min.js"></script>
<script src="/assets/v%d/moment-2.10.6.min.js"></script>
<link rel="stylesheet" href="/site.css">
</head><body><p>site %d</p></body></html>`, 4+i%9, i%8, i, i)
	}
	return pages
}

// scrapeMetrics parses the Prometheus text exposition into series → value.
func scrapeMetrics(tb testing.TB, client *http.Client, base string) map[string]float64 {
	tb.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

func BenchmarkServeAudit(b *testing.B) {
	for _, mode := range []struct {
		name  string
		cache int
	}{{"cold", -1}, {"warm", 4096}} {
		b.Run(mode.name, func(b *testing.B) {
			svc := service.New(service.Config{
				Workers: 4, QueueDepth: 256, CacheEntries: mode.cache,
				Now: func() time.Time { return time.Date(2026, 1, 2, 0, 0, 0, 0, time.UTC) },
			})
			defer svc.Close()
			ts := httptest.NewServer(svc)
			defer ts.Close()
			client := &http.Client{Transport: &http.Transport{
				MaxIdleConns: 64, MaxIdleConnsPerHost: 64,
			}}
			pages := benchPages(32)

			post := func(page string) (int, []byte) {
				resp, err := client.Post(ts.URL+"/v1/audit?host=bench.test", "text/html", strings.NewReader(page))
				if err != nil {
					b.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					b.Fatal(err)
				}
				_ = resp.Body.Close()
				return resp.StatusCode, body
			}

			// Correctness gate: the same input audited cold and answered
			// from cache must be byte-identical.
			var setup int
			code, cold := post(pages[0])
			setup++
			if code != http.StatusOK {
				b.Fatalf("setup audit status %d", code)
			}
			if mode.cache > 0 {
				code, cached := post(pages[0])
				setup++
				if code != http.StatusOK || !bytes.Equal(cold, cached) {
					b.Fatal("cached response not byte-identical to cold response")
				}
			}

			var sent atomic.Int64
			b.ResetTimer()
			b.SetParallelism(8)
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					code, _ := post(pages[i%len(pages)])
					if code != http.StatusOK {
						b.Errorf("audit status %d", code)
						return
					}
					i++
					sent.Add(1)
				}
			})
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "req/s")
			}

			// Reconcile the server's counters against what we sent: every
			// request accounted for, nothing shed, nothing dropped.
			m := scrapeMetrics(b, client, ts.URL)
			total := int64(m[`clientres_http_requests_total{endpoint="audit"}`])
			hits := int64(m[`clientres_audit_cache_hits_total`])
			misses := int64(m[`clientres_audit_cache_misses_total`])
			shedQ := int64(m[`clientres_audit_shed_total{reason="queue_full"}`])
			shedR := int64(m[`clientres_audit_shed_total{reason="rate_limited"}`])
			want := sent.Load() + int64(setup)
			if total != want {
				b.Fatalf("server saw %d audit requests, load generator sent %d", total, want)
			}
			if shedQ != 0 || shedR != 0 {
				b.Fatalf("shed requests: queue=%d rate=%d, want 0", shedQ, shedR)
			}
			if mode.cache > 0 {
				if hits+misses != total {
					b.Fatalf("cache hits(%d)+misses(%d) != requests(%d)", hits, misses, total)
				}
				// Warm steady state: only the first sight of each page misses.
				if maxMisses := int64(len(pages) + 1); misses > maxMisses {
					b.Fatalf("warm misses = %d, want ≤ %d", misses, maxMisses)
				}
			} else if hits != 0 || misses != 0 {
				// With the cache disabled there is no cache to hit or miss;
				// a nonzero counter here is the phantom-miss regression.
				b.Fatalf("cache counters hits=%d misses=%d with cache disabled, want 0/0", hits, misses)
			}
			b.ReportMetric(m[`clientres_http_request_duration_seconds{endpoint="audit",quantile="0.5"}`]*1e9, "p50-ns")
			b.ReportMetric(m[`clientres_http_request_duration_seconds{endpoint="audit",quantile="0.99"}`]*1e9, "p99-ns")
		})
	}
}

// BenchmarkServeBatch drives POST /v1/audit/batch: each operation streams
// one NDJSON batch of recordsPerBatch records (with a policy control line)
// and reads the NDJSON reply. req/s counts records, making the number
// comparable with BenchmarkServeAudit's one-record-per-request rate. The
// reconciliation gate is exact: every submitted record must come back as
// completed, errored, or shed — in both the per-stream summaries and the
// server's /metrics counters.
func BenchmarkServeBatch(b *testing.B) {
	const recordsPerBatch = 16
	const benchPolicy = `name: bench gate
rules:
  - name: stale-high
    scope: finding
    when: severity == "high" && age(disclosed) > 90d
  - name: missing-sri
    when: missing_sri > 0
`
	svc := service.New(service.Config{
		Workers: 4, QueueDepth: 256, CacheEntries: 4096,
		Now: func() time.Time { return time.Date(2026, 1, 2, 0, 0, 0, 0, time.UTC) },
	})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: 64, MaxIdleConnsPerHost: 64,
	}}
	pages := benchPages(32)

	polJSON, err := json.Marshal(benchPolicy)
	if err != nil {
		b.Fatal(err)
	}
	makeBody := func(start int) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, `{"policy":%s}`+"\n", polJSON)
		for i := 0; i < recordsPerBatch; i++ {
			pg, _ := json.Marshal(pages[(start+i)%len(pages)])
			fmt.Fprintf(&sb, `{"html":%s,"host":"bench.test"}`+"\n", pg)
		}
		return sb.String()
	}

	var records, completed, errored, shed atomic.Int64
	b.ResetTimer()
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/v1/audit/batch", "application/x-ndjson",
				strings.NewReader(makeBody(i)))
			if err != nil {
				b.Error(err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				b.Errorf("batch status %d err %v", resp.StatusCode, err)
				return
			}
			// The summary is the last NDJSON line; trust it only after
			// checking the per-record line count matches what we sent.
			lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
			if len(lines) != recordsPerBatch+1 {
				b.Errorf("batch reply has %d lines, want %d records + summary", len(lines), recordsPerBatch+1)
				return
			}
			var sum struct {
				Summary struct {
					Records, Completed, Errors, Shed int
				} `json:"summary"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
				b.Errorf("bad summary line %q", lines[len(lines)-1])
				return
			}
			s := sum.Summary
			if s.Records != recordsPerBatch || s.Completed+s.Errors != s.Records {
				b.Errorf("summary does not reconcile: %+v", s)
				return
			}
			records.Add(int64(s.Records))
			completed.Add(int64(s.Completed))
			errored.Add(int64(s.Errors))
			shed.Add(int64(s.Shed))
			i += recordsPerBatch
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(records.Load())/sec, "req/s")
	}

	// Exact reconciliation: client-side per-stream summaries and the
	// server's own counters must both account for every record.
	m := scrapeMetrics(b, client, ts.URL)
	srvRecords := int64(m[`clientres_batch_records_total{result="completed"}`] +
		m[`clientres_batch_records_total{result="error"}`])
	if got := int64(m[`clientres_batch_records_total{result="completed"}`]); got != completed.Load() {
		b.Fatalf("server completed %d records, client saw %d", got, completed.Load())
	}
	if got := int64(m[`clientres_batch_records_total{result="error"}`]); got != errored.Load() {
		b.Fatalf("server errored %d records, client saw %d", got, errored.Load())
	}
	if got := int64(m[`clientres_batch_records_total{result="shed"}`]); got != shed.Load() {
		b.Fatalf("server shed %d records, client saw %d", got, shed.Load())
	}
	if srvRecords != records.Load() {
		b.Fatalf("server accounted %d records, load generator sent %d", srvRecords, records.Load())
	}
	if streams := int64(m[`clientres_batch_streams_total`]); streams != int64(b.N) {
		b.Fatalf("server saw %d streams, client opened %d", streams, b.N)
	}
	if active := int64(m[`clientres_batch_streams_active`]); active != 0 {
		b.Fatalf("batch active gauge = %d after load, want 0", active)
	}
	b.ReportMetric(m[`clientres_http_request_duration_seconds{endpoint="audit_batch",quantile="0.99"}`]*1e9, "p99-ns")
}
