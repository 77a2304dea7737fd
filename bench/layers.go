package main

import (
	"fmt"
	"sort"
	"strings"

	"clientres/bench/benchfmt"
)

// metricDef is one metric the runner emits; BENCHMARK.json must list the
// same names and units (the test and the summariser check it both ways).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, in output order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"cpu_us_per_op", "us"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"store_bytes_per_op", "B"},
}

// perLayer are the metrics of a traced run. A layer the workload does not
// call reads 0.
var perLayer = []metricDef{
	{"webgen.new_s", "s"},
	{"webgen.render_us_per_page", "us"},
	{"webgen.truth_us_per_obs", "us"},
	{"webserver.serve_us_per_req", "us"},
	{"webserver.requests", "count"},
	{"crawler.roundtrip_us_per_req", "us"},
	{"crawler.fetch_p50_ms", "ms"},
	{"crawler.fetch_p99_ms", "ms"},
	{"crawler.attempts", "count"},
	{"crawler.retries", "count"},
	{"crawler.conn_failures", "count"},
	{"crawler.fetch_wait_share", "ratio"},
	{"crawler.slot_idle_share", "ratio"},
	{"htmlx.tokenize_mb_per_s", "MB/s"},
	{"fingerprint.page_cold_us_per_page", "us"},
	{"fingerprint.scan_cold_mb_per_s", "MB/s"},
	{"fingerprint.memo_us_per_page", "us"},
	{"fingerprint.memo_hit_ratio", "ratio"},
	{"fingerprint.scan_memo_hit_ratio", "ratio"},
	{"vulndb.match_ns_per_lib", "ns"},
	{"analysis.observation_us_per_page", "us"},
	{"analysis.collect_us_per_obs", "us"},
	{"analysis.collect.collection_ns_per_obs", "ns"},
	{"analysis.collect.libraries_ns_per_obs", "ns"},
	{"analysis.collect.vuln_ns_per_obs", "ns"},
	{"analysis.collect.delay_ns_per_obs", "ns"},
	{"analysis.collect.sri_ns_per_obs", "ns"},
	{"analysis.collect.flash_ns_per_obs", "ns"},
	{"analysis.collect.wordpress_ns_per_obs", "ns"},
	{"analysis.collect.discontinued_ns_per_obs", "ns"},
	{"analysis.collect.regressions_ns_per_obs", "ns"},
	{"analysis.merge_ms", "ms"},
	{"store.write_us_per_obs", "us"},
	{"store.commit_ms_p50", "ms"},
	{"store.commit_ms_p99", "ms"},
	{"store.commits", "count"},
	{"store.close_ms", "ms"},
	{"store.bytes_per_obs", "B"},
	{"store.read_us_per_obs", "us"},
	{"store.verify_ms", "ms"},
	{"wexbundle.record_us_per_req", "us"},
	{"wexbundle.bytes_per_page", "B"},
	{"wexbundle.mount_s", "s"},
	{"wexbundle.replay_us_per_req", "us"},
	{"poclab.run_all_ms", "ms"},
	{"report.render_ms", "ms"},
	{"service.audit_cold_us", "us"},
	{"service.encode_us", "us"},
	{"service.handler_miss_us", "us"},
	{"service.handler_hit_us", "us"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.http_overhead_us", "us"},
	{"policy.eval_us", "us"},
	{"distcrawl.lease_rtt_ms_p50", "ms"},
	{"distcrawl.commit_rtt_ms_p50", "ms"},
	{"distcrawl.commit_rtt_ms_p99", "ms"},
	{"distcrawl.protocol_requests", "count"},
	{"distcrawl.week_ms_p50", "ms"},
	{"distcrawl.merge_s", "s"},
	{"core.self_share", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// layerMetrics turns one workload's spans into its per-layer metrics. The
// spans of phase "run" are the re-composed timed region (every traced
// pass); "setup" and "probe" spans are the set-up and the single layers
// measured alone. Counts are per traced pass.
func layerMetrics(spans []span) map[string]float64 {
	var closed []span
	for _, s := range spans {
		if s.End >= s.Start && s.End != 0 {
			closed = append(closed, s)
		}
	}
	all := indexSpans(closed)
	run := indexSpans(filterPhase(closed, "run"))
	setup := indexSpans(filterPhase(closed, "setup"))
	probe := indexSpans(filterPhase(closed, "probe"))

	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	passes := float64(run.agg("core/run").n)
	// usPer is the time inside the spans of one name per unit of their Count.
	usPer := func(ix *traceIndex, name string) float64 {
		a := ix.agg(name)
		return ratio(us(a.dur), float64(a.count))
	}
	meanMS := func(ix *traceIndex, name string) float64 {
		a := ix.agg(name)
		return ratio(ms(a.dur), float64(a.n))
	}
	mbPerS := func(ix *traceIndex, name string) float64 {
		a := ix.agg(name)
		return ratio(float64(a.bytes)/1e6, a.dur.Seconds())
	}
	perPass := func(v float64) float64 { return ratio(v, passes) }
	hitRatio := func(hits, misses string) float64 {
		h, mi := float64(run.agg(hits).count), float64(run.agg(misses).count)
		return ratio(h, h+mi)
	}

	m["webgen.new_s"] = meanMS(all, "webgen/new") / 1e3
	m["webgen.render_us_per_page"] = usPer(all, "webgen/render")
	m["webgen.truth_us_per_obs"] = usPer(run, "webgen/truth")

	serve := run.agg("webserver/serve")
	m["webserver.serve_us_per_req"] = ratio(us(serve.dur), float64(serve.n))
	m["webserver.requests"] = perPass(float64(serve.n))

	rt := run.agg("crawler/roundtrip")
	m["crawler.roundtrip_us_per_req"] = ratio(us(rt.dur), float64(rt.n))
	fetch := run.agg("crawler/fetch")
	m["crawler.fetch_p50_ms"] = quantile(fetch.durs, 0.50)
	m["crawler.fetch_p99_ms"] = quantile(fetch.durs, 0.99)
	m["crawler.attempts"] = perPass(float64(run.agg("crawler/attempts").count))
	m["crawler.retries"] = perPass(float64(run.agg("crawler/retries").count))
	m["crawler.conn_failures"] = perPass(float64(run.agg("crawler/conn_failures").count))
	if fetch.n > 0 {
		// A fetch's children are its exchanges; what they do not cover is
		// backoff sleep and the crawler's own work between exchanges.
		m["crawler.fetch_wait_share"] = ratio(float64(run.self("crawler/fetch")), float64(fetch.dur))
		var slotTime float64
		for _, i := range run.byName["crawler/crawl_week"] {
			wk := run.spans[i]
			slotTime += float64(wk.dur()) * float64(wk.Count)
		}
		m["crawler.slot_idle_share"] = 1 - ratio(float64(fetch.dur), slotTime)
	}

	m["htmlx.tokenize_mb_per_s"] = mbPerS(probe, "htmlx/tags")
	m["fingerprint.page_cold_us_per_page"] = usPer(probe, "fingerprint/page_cold")
	m["fingerprint.scan_cold_mb_per_s"] = mbPerS(probe, "fingerprint/scan_cold")
	m["fingerprint.memo_us_per_page"] = usPer(run, "fingerprint/memo_page")
	m["fingerprint.memo_hit_ratio"] = hitRatio("fingerprint/memo_hits", "fingerprint/memo_misses")
	m["fingerprint.scan_memo_hit_ratio"] = hitRatio("fingerprint/scan_memo_hits", "fingerprint/scan_memo_misses")
	m["vulndb.match_ns_per_lib"] = usPer(probe, "vulndb/match") * 1e3

	m["analysis.observation_us_per_page"] = usPer(run, "analysis/observation")
	m["analysis.collect_us_per_obs"] = usPer(run, "analysis/observe")
	for _, c := range collectorNames {
		m["analysis.collect."+c+"_ns_per_obs"] = usPer(probe, "analysis/collect."+c) * 1e3
	}
	m["analysis.merge_ms"] = meanMS(run, "analysis/merge")

	m["store.write_us_per_obs"] = usPer(run, "store/write")
	commits := run.agg("store/commit")
	m["store.commit_ms_p50"] = quantile(commits.durs, 0.50)
	m["store.commit_ms_p99"] = quantile(commits.durs, 0.99)
	m["store.commits"] = perPass(float64(commits.n))
	m["store.close_ms"] = perPass(ms(run.agg("store/close").dur))
	size := run.agg("store/size")
	m["store.bytes_per_obs"] = ratio(float64(size.bytes), float64(size.count))
	read := run.agg("store/read")
	m["store.read_us_per_obs"] = ratio(us(run.self("store/read")), float64(read.count))
	m["store.verify_ms"] = meanMS(run, "store/verify")

	// The recorder's span encloses the live exchange it archives; its self
	// time is the archiving.
	rec := setup.agg("wexbundle/record")
	m["wexbundle.record_us_per_req"] = ratio(us(setup.self("wexbundle/record")), float64(rec.n))
	bsize := setup.agg("wexbundle/size")
	m["wexbundle.bytes_per_page"] = ratio(float64(bsize.bytes), float64(bsize.count))
	m["wexbundle.mount_s"] = meanMS(run, "wexbundle/mount") / 1e3
	replay := run.agg("wexbundle/replay")
	m["wexbundle.replay_us_per_req"] = ratio(us(replay.dur), float64(replay.n))

	m["poclab.run_all_ms"] = meanMS(run, "poclab/run_all")
	m["report.render_ms"] = meanMS(run, "report/render")

	m["service.audit_cold_us"] = usPer(probe, "service/audit_cold")
	m["service.encode_us"] = usPer(probe, "service/encode")
	m["service.handler_miss_us"] = usPer(run, "service/handler_miss")
	m["service.handler_hit_us"] = usPer(run, "service/handler_hit")
	m["service.cache_hit_ratio"] = hitRatio("service/cache_hits", "service/cache_misses")
	if client := run.agg("service/client_request"); client.n > 0 {
		hit, miss := run.agg("service/handler_hit"), run.agg("service/handler_miss")
		m["service.http_overhead_us"] = ratio(us(client.dur), float64(client.n)) -
			ratio(us(hit.dur+miss.dur), float64(hit.n+miss.n))
	}
	m["policy.eval_us"] = usPer(probe, "policy/eval")

	m["distcrawl.lease_rtt_ms_p50"] = quantile(run.agg("distcrawl/rtt.lease").durs, 0.50)
	commitRTT := run.agg("distcrawl/rtt.commit").durs
	m["distcrawl.commit_rtt_ms_p50"] = quantile(commitRTT, 0.50)
	m["distcrawl.commit_rtt_ms_p99"] = quantile(commitRTT, 0.99)
	var protocol int
	for name, idx := range run.byName {
		if strings.HasPrefix(name, "distcrawl/rtt.") {
			protocol += len(idx)
		}
	}
	m["distcrawl.protocol_requests"] = perPass(float64(protocol))
	m["distcrawl.week_ms_p50"] = quantile(run.agg("distcrawl/week").durs, 0.50)
	m["distcrawl.merge_s"] = meanMS(run, "distcrawl/merge") / 1e3

	// Diagnostics: how much of the traced pass the table above explains.
	root := run.agg("core/run")
	m["core.self_share"] = ratio(float64(run.self("core/run")), float64(root.dur))
	m["trace.coverage"] = run.coverage("core/run")
	if untraced := all.agg("trace/untraced_pass"); untraced.n > 0 && root.n > 0 {
		m["trace.overhead_share"] = ratio(benchfmt.Median(root.durs), benchfmt.Median(untraced.durs)) - 1
	}
	return m
}

func filterPhase(spans []span, phase string) []span {
	var out []span
	for _, s := range spans {
		if s.Phase == phase {
			out = append(out, s)
		}
	}
	return out
}

// coverage is the share of the root spans' wall time during which at least
// one other span of the phase, at any depth, is open.
func (ix *traceIndex) coverage(root string) float64 {
	var others []int
	for i, s := range ix.spans {
		if s.Layer+"/"+s.Op != root && s.End > s.Start {
			others = append(others, i)
		}
	}
	var wall, covered float64
	for _, i := range ix.byName[root] {
		r := ix.spans[i]
		wall += float64(r.dur())
		covered += float64(ix.unionLen(others, r.Start, r.End))
	}
	return ratio(covered, wall)
}

// checkNames reports the metric names that are in one list and not the other.
func checkNames(what string, got map[string]float64, want []metricDef) error {
	var problems []string
	wanted := make(map[string]bool, len(want))
	for _, d := range want {
		wanted[d.name] = true
		if _, ok := got[d.name]; !ok {
			problems = append(problems, "missing "+d.name)
		}
	}
	for name := range got {
		if !wanted[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	return fmt.Errorf("bench: %s: %s", what, strings.Join(problems, ", "))
}

// checkDefs checks that BENCHMARK.json declares exactly the metrics the
// runner emits, with the same units.
func checkDefs(what string, declared []benchfmt.Metric, emitted []metricDef) error {
	units := make(map[string]string, len(emitted))
	got := make(map[string]float64, len(declared))
	for _, d := range emitted {
		units[d.name] = d.unit
	}
	for _, m := range declared {
		got[m.Name] = 0
		if u, ok := units[m.Name]; ok && u != m.Unit {
			return fmt.Errorf("bench: BENCHMARK.json %s: %s has unit %q, the runner emits %q", what, m.Name, m.Unit, u)
		}
	}
	return checkNames("BENCHMARK.json "+what, got, emitted)
}
