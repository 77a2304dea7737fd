package crawler

import (
	"time"

	"clientres/internal/metrics"
)

// Metrics aggregates crawl counters over a Crawler's lifetime. Every field
// updates atomically from the worker goroutines; Snapshot folds them into a
// plain struct for reporting. The counter and histogram primitives live in
// internal/metrics, shared with the online audit service.
type Metrics struct {
	attempts        metrics.Counter   // HTTP requests issued
	retries         metrics.Counter   // attempts beyond the first per fetch
	successes       metrics.Counter   // fetches that returned a status and body
	connFailures    metrics.Counter   // attempts that failed at the connection level
	breakerTrips    metrics.Counter   // circuit transitions to open
	breakerShed     metrics.Counter   // attempts refused by an open circuit
	budgetExhausted metrics.Counter   // retries forgone because the week's budget ran out
	bytes           metrics.Counter   // body bytes read (post-truncation)
	waited          metrics.Counter   // nanoseconds spent inside Config.Sleep (backoff)
	lat             metrics.Histogram // successful-fetch latency
}

// MetricsSnapshot is a point-in-time copy of a Crawler's counters.
type MetricsSnapshot struct {
	Attempts, Retries, Successes, ConnFailures int64
	BreakerTrips, BreakerShed                  int64
	BudgetExhausted                            int64
	Bytes                                      int64
	// Waited is the wall time spent inside Config.Sleep (retry backoff),
	// summed over workers, so it can exceed the crawl's own wall time.
	Waited time.Duration
	// FetchP50 / FetchP99 are latency quantiles of successful fetches
	// (request start through body read), resolved to power-of-two
	// microsecond buckets. They are derived from Latency, never summed:
	// Merge re-resolves them from the combined buckets.
	FetchP50, FetchP99 time.Duration
	// Latency carries the raw histogram buckets so snapshots from
	// different workers merge exactly (bucket-wise addition) instead of
	// averaging already-resolved quantiles.
	Latency [metrics.NumBuckets]int64
}

// Snapshot returns the current counters. Concurrent updates may land
// between field reads; each individual counter is exact.
func (m *Metrics) Snapshot() MetricsSnapshot {
	buckets := m.lat.Buckets()
	return MetricsSnapshot{
		Attempts:        m.attempts.Load(),
		Retries:         m.retries.Load(),
		Successes:       m.successes.Load(),
		ConnFailures:    m.connFailures.Load(),
		BreakerTrips:    m.breakerTrips.Load(),
		BreakerShed:     m.breakerShed.Load(),
		BudgetExhausted: m.budgetExhausted.Load(),
		Bytes:           m.bytes.Load(),
		Waited:          time.Duration(m.waited.Load()),
		FetchP50:        metrics.QuantileOf(buckets, 0.50),
		FetchP99:        metrics.QuantileOf(buckets, 0.99),
		Latency:         buckets,
	}
}

// Merge folds another snapshot into this one: counters sum, latency
// histograms add bucket-wise, and the quantiles are re-resolved from the
// combined buckets — so merging N per-worker snapshots equals the
// snapshot one crawler would have produced doing all the work itself.
func (s *MetricsSnapshot) Merge(o MetricsSnapshot) {
	s.Attempts += o.Attempts
	s.Retries += o.Retries
	s.Successes += o.Successes
	s.ConnFailures += o.ConnFailures
	s.BreakerTrips += o.BreakerTrips
	s.BreakerShed += o.BreakerShed
	s.BudgetExhausted += o.BudgetExhausted
	s.Bytes += o.Bytes
	s.Waited += o.Waited
	for i := range s.Latency {
		s.Latency[i] += o.Latency[i]
	}
	s.FetchP50 = metrics.QuantileOf(s.Latency, 0.50)
	s.FetchP99 = metrics.QuantileOf(s.Latency, 0.99)
}
