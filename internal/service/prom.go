package service

import (
	"bytes"
	"fmt"
	"net/http"

	"clientres/internal/metrics"
)

// handleMetrics renders every counter and latency quantile in Prometheus
// text exposition format, handwritten — the repo takes no dependencies,
// and the format is a few fmt.Fprintf calls. Series are emitted in a fixed
// order so scrapes diff cleanly.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b bytes.Buffer

	fmt.Fprintf(&b, "# HELP clientres_http_requests_total HTTP requests by endpoint and status class.\n")
	fmt.Fprintf(&b, "# TYPE clientres_http_requests_total counter\n")
	for _, em := range s.met.endpoints {
		fmt.Fprintf(&b, "clientres_http_requests_total{endpoint=%q} %d\n", em.name, em.total.Load())
	}
	fmt.Fprintf(&b, "# HELP clientres_http_responses_total HTTP responses by endpoint and status class.\n")
	fmt.Fprintf(&b, "# TYPE clientres_http_responses_total counter\n")
	for _, em := range s.met.endpoints {
		for cls := 1; cls <= 5; cls++ {
			if n := em.codes[cls].Load(); n > 0 {
				fmt.Fprintf(&b, "clientres_http_responses_total{endpoint=%q,code=\"%dxx\"} %d\n", em.name, cls, n)
			}
		}
	}

	fmt.Fprintf(&b, "# HELP clientres_http_request_duration_seconds Request latency quantiles (power-of-two microsecond buckets).\n")
	fmt.Fprintf(&b, "# TYPE clientres_http_request_duration_seconds summary\n")
	for _, em := range s.met.endpoints {
		if em.lat.Total() == 0 {
			continue
		}
		for _, q := range []struct {
			label string
			q     float64
		}{{"0.5", 0.50}, {"0.99", 0.99}} {
			fmt.Fprintf(&b, "clientres_http_request_duration_seconds{endpoint=%q,quantile=%q} %g\n",
				em.name, q.label, em.lat.Quantile(q.q).Seconds())
		}
		fmt.Fprintf(&b, "clientres_http_request_duration_seconds_count{endpoint=%q} %d\n", em.name, em.lat.Total())
	}

	// Cumulative le-bucket export of the audit latency histogram, for
	// scrapers that aggregate their own quantiles.
	audit := s.met.endpoint("audit")
	if audit.lat.Total() > 0 {
		fmt.Fprintf(&b, "# TYPE clientres_audit_duration_us histogram\n")
		var cum int64
		for i, n := range audit.lat.Buckets() {
			cum += n
			if n == 0 {
				continue
			}
			fmt.Fprintf(&b, "clientres_audit_duration_us_bucket{le=\"%d\"} %d\n",
				metrics.BucketUpperBound(i).Microseconds(), cum)
		}
		fmt.Fprintf(&b, "clientres_audit_duration_us_bucket{le=\"+Inf\"} %d\n", cum)
	}

	fmt.Fprintf(&b, "# HELP clientres_audit_cache_hits_total Audits answered from the response cache.\n")
	fmt.Fprintf(&b, "# TYPE clientres_audit_cache_hits_total counter\n")
	fmt.Fprintf(&b, "clientres_audit_cache_hits_total %d\n", s.met.cacheHits.Load())
	fmt.Fprintf(&b, "# HELP clientres_audit_cache_misses_total Audit replies banked in the response cache.\n")
	fmt.Fprintf(&b, "# TYPE clientres_audit_cache_misses_total counter\n")
	fmt.Fprintf(&b, "clientres_audit_cache_misses_total %d\n", s.met.cacheMisses.Load())
	fmt.Fprintf(&b, "# TYPE clientres_audit_cache_evictions_total counter\n")
	fmt.Fprintf(&b, "clientres_audit_cache_evictions_total %d\n", s.met.cacheEvictions.Load())
	if s.cache != nil {
		fmt.Fprintf(&b, "# TYPE clientres_audit_cache_entries gauge\n")
		fmt.Fprintf(&b, "clientres_audit_cache_entries %d\n", s.cache.len())
	}

	fmt.Fprintf(&b, "# HELP clientres_audit_shed_total Audits refused by backpressure, by reason.\n")
	fmt.Fprintf(&b, "# TYPE clientres_audit_shed_total counter\n")
	fmt.Fprintf(&b, "clientres_audit_shed_total{reason=\"queue_full\"} %d\n", s.met.shedQueue.Load())
	fmt.Fprintf(&b, "clientres_audit_shed_total{reason=\"rate_limited\"} %d\n", s.met.shedRate.Load())

	fmt.Fprintf(&b, "# TYPE clientres_audit_fetches_total counter\n")
	fmt.Fprintf(&b, "clientres_audit_fetches_total %d\n", s.met.fetches.Load())
	fmt.Fprintf(&b, "# TYPE clientres_audit_fetch_failures_total counter\n")
	fmt.Fprintf(&b, "clientres_audit_fetch_failures_total %d\n", s.met.fetchFailures.Load())

	fmt.Fprintf(&b, "# TYPE clientres_audit_queue_depth gauge\n")
	fmt.Fprintf(&b, "clientres_audit_queue_depth %d\n", len(s.jobs))
	fmt.Fprintf(&b, "# TYPE clientres_audit_queue_capacity gauge\n")
	fmt.Fprintf(&b, "clientres_audit_queue_capacity %d\n", cap(s.jobs))

	fmt.Fprintf(&b, "# HELP clientres_policy_verdicts_total Policy evaluations by overall verdict (all policies).\n")
	fmt.Fprintf(&b, "# TYPE clientres_policy_verdicts_total counter\n")
	fmt.Fprintf(&b, "clientres_policy_verdicts_total{overall=\"pass\"} %d\n", s.met.policyPass.Load())
	fmt.Fprintf(&b, "clientres_policy_verdicts_total{overall=\"warn\"} %d\n", s.met.policyWarn.Load())
	fmt.Fprintf(&b, "clientres_policy_verdicts_total{overall=\"fail\"} %d\n", s.met.policyFail.Load())
	if len(s.met.policyRules) > 0 {
		// Per-rule series exist only for the server-preloaded policy:
		// its rule names are operator-chosen and fixed at startup, so the
		// label cardinality is bounded. Inline request policies only feed
		// the aggregate counters above.
		fmt.Fprintf(&b, "# HELP clientres_policy_rule_verdicts_total Per-rule outcomes of the server-preloaded policy.\n")
		fmt.Fprintf(&b, "# TYPE clientres_policy_rule_verdicts_total counter\n")
		for _, rm := range s.met.policyRules {
			fmt.Fprintf(&b, "clientres_policy_rule_verdicts_total{rule=%q,outcome=\"pass\"} %d\n", rm.name, rm.pass.Load())
			fmt.Fprintf(&b, "clientres_policy_rule_verdicts_total{rule=%q,outcome=\"warn\"} %d\n", rm.name, rm.warn.Load())
			fmt.Fprintf(&b, "clientres_policy_rule_verdicts_total{rule=%q,outcome=\"fail\"} %d\n", rm.name, rm.fail.Load())
		}
	}

	fmt.Fprintf(&b, "# HELP clientres_batch_streams_total Batch audit streams opened.\n")
	fmt.Fprintf(&b, "# TYPE clientres_batch_streams_total counter\n")
	fmt.Fprintf(&b, "clientres_batch_streams_total %d\n", s.met.batchStreams.Load())
	fmt.Fprintf(&b, "# TYPE clientres_batch_streams_active gauge\n")
	fmt.Fprintf(&b, "clientres_batch_streams_active %d\n", s.met.batchActive.Load())
	fmt.Fprintf(&b, "# HELP clientres_batch_records_total Batch records by result; shed records are also errors.\n")
	fmt.Fprintf(&b, "# TYPE clientres_batch_records_total counter\n")
	fmt.Fprintf(&b, "clientres_batch_records_total{result=\"completed\"} %d\n", s.met.batchCompleted.Load())
	fmt.Fprintf(&b, "clientres_batch_records_total{result=\"error\"} %d\n", s.met.batchErrors.Load())
	fmt.Fprintf(&b, "clientres_batch_records_total{result=\"shed\"} %d\n", s.met.batchShedRecords.Load())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(b.Bytes())
}
