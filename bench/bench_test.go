package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"clientres/bench/benchfmt"
	"clientres/internal/store"
)

// tinyShape runs every workload's code path in well under a second each:
// the same pipelines, gates and metrics at a size only the tests use.
var tinyShape = shape{
	crawlDomains: 40, crawlWeeks: 3, crawlWorkers: 8,
	distWorkers: 2, distCrawlWorkers: 4, distPartitions: 2,
	storeDomains: 40, storeWeeks: 6,
	shards: 2, segments: 2,
	serveClients: 2, serveBatch: 60,
	hotPages: 16, coldPages: 64, hotShare: 0.7,
	samplePages: 8,
	setupReps:   1,
}

func tinyEnv(t *testing.T, seed int64) *env {
	return &env{seed: seed, sh: tinyShape, dir: t.TempDir()}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// layersOf lists, per workload, per-layer metrics that must read above zero
// there: the layers the issue lists the workload against.
var layersOf = map[string][]string{
	"crawl-live": {"webgen.new_s", "webgen.render_us_per_page", "webserver.serve_us_per_req", "webserver.requests",
		"crawler.roundtrip_us_per_req", "crawler.fetch_p50_ms", "crawler.fetch_p99_ms", "crawler.attempts",
		"crawler.fetch_wait_share", "crawler.slot_idle_share", "htmlx.tokenize_mb_per_s",
		"fingerprint.page_cold_us_per_page", "fingerprint.memo_us_per_page", "fingerprint.memo_hit_ratio",
		"analysis.observation_us_per_page", "analysis.collect_us_per_obs", "analysis.collect.libraries_ns_per_obs",
		"analysis.merge_ms", "store.write_us_per_obs", "store.commit_ms_p50", "store.commit_ms_p99", "store.commits",
		"store.close_ms", "store.bytes_per_obs", "store.read_us_per_obs", "store.verify_ms", "report.render_ms",
		"trace.coverage"},
	"crawl-replay": {"wexbundle.record_us_per_req", "wexbundle.bytes_per_page", "wexbundle.mount_s",
		"wexbundle.replay_us_per_req", "crawler.attempts", "crawler.fetch_wait_share", "fingerprint.memo_us_per_page",
		"store.write_us_per_obs", "store.bytes_per_obs", "report.render_ms", "trace.coverage"},
	"dist-crawl": {"webserver.requests", "crawler.roundtrip_us_per_req", "crawler.slot_idle_share",
		"distcrawl.lease_rtt_ms_p50", "distcrawl.commit_rtt_ms_p50", "distcrawl.commit_rtt_ms_p99",
		"distcrawl.protocol_requests", "distcrawl.week_ms_p50", "distcrawl.merge_s", "store.commits",
		"store.bytes_per_obs", "store.read_us_per_obs", "trace.coverage"},
	"direct-write": {"webgen.new_s", "webgen.truth_us_per_obs", "analysis.observation_us_per_page",
		"analysis.collect_us_per_obs", "analysis.collect.vuln_ns_per_obs", "analysis.merge_ms",
		"store.write_us_per_obs", "store.commit_ms_p50", "store.commits", "store.close_ms", "store.bytes_per_obs",
		"store.verify_ms", "report.render_ms", "trace.coverage"},
	"store-analyze": {"store.read_us_per_obs", "store.verify_ms", "analysis.collect_us_per_obs",
		"analysis.collect.delay_ns_per_obs", "analysis.merge_ms", "vulndb.match_ns_per_lib", "poclab.run_all_ms",
		"report.render_ms", "trace.coverage"},
	"serve-audit": {"webgen.new_s", "webgen.render_us_per_page", "htmlx.tokenize_mb_per_s",
		"fingerprint.page_cold_us_per_page", "service.audit_cold_us", "service.encode_us", "service.handler_miss_us",
		"service.handler_hit_us", "service.cache_hit_ratio", "policy.eval_us", "trace.coverage"},
}

// TestWorkloads runs every workload and its traced twin: the traced run
// starts with a pass through the product's entry points, checks that the
// re-composed pipeline reproduces its report, and emits both metric sets.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			if !nameRE.MatchString(w.name) {
				t.Errorf("workload name %q", w.name)
			}
			tr := newTracer(w.name)
			m, err := measure(w, tinyEnv(t, 1), 0, tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, defs := range []struct {
				values map[string]float64
				defs   []metricDef
			}{{m.endToEnd, endToEnd}, {m.layers, perLayer}} {
				if err := checkNames(w.name, defs.values, defs.defs); err != nil {
					t.Error(err)
				}
				for name, v := range defs.values {
					if !nameRE.MatchString(name) {
						t.Errorf("metric name %q", name)
					}
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v", name, v)
					}
				}
			}
			for name, v := range m.endToEnd {
				if v <= 0 {
					t.Errorf("end-to-end %s = %v, want above zero", name, v)
				}
			}
			for _, name := range layersOf[w.name] {
				if m.layers[name] <= 0 {
					t.Errorf("per-layer %s = %v, want above zero on %s", name, m.layers[name], w.name)
				}
			}
			res := m.result
			if res.Passes != 1 || res.OpsAttempted == 0 || res.OpsFailed != 0 {
				t.Errorf("passes %d, attempted %d, failed %d", res.Passes, res.OpsAttempted, res.OpsFailed)
			}
			if (res.ReportSHA == "") != (w.name == "serve-audit") {
				t.Errorf("report_sha256 %q", res.ReportSHA)
			}

			// The kept trace summarises to the same names.
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			if err := writeSpans(path, tr.spans); err != nil {
				t.Fatal(err)
			}
			byWorkload, order, err := readSpans(path)
			if err != nil || len(order) != 1 {
				t.Fatalf("readSpans: %v, workloads %v", err, order)
			}
			if err := checkNames("summary", layerMetrics(byWorkload[w.name]), perLayer); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSecondSeed runs the study workloads' gates on another seed: no hash
// is pinned anywhere, so they must hold for any.
func TestSecondSeed(t *testing.T) {
	for _, name := range []string{"crawl-replay", "direct-write"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, _ := workloadByName(name)
			if _, err := measure(w, tinyEnv(t, 2), 0, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpecMatchesRunner holds BENCHMARK.json and the runner to each other.
func TestSpecMatchesRunner(t *testing.T) {
	spec, err := benchfmt.LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the runner has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the runner's is %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if err := checkDefs("end_to_end", spec.EndToEnd, endToEnd); err != nil {
		t.Error(err)
	}
	if err := checkDefs("per_layer", spec.PerLayer, perLayer); err != nil {
		t.Error(err)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range append(append([]benchfmt.Metric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v", m)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the runner's default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v", spec.Paths)
	}
}

// faulty wraps an instance and corrupts the report hash of its traced passes.
type faulty struct{ instance }

func (f *faulty) tracedPass(tr *tracer) (pass, error) {
	p, err := f.instance.tracedPass(tr)
	p.sha = strings.Repeat("0", 64)
	return p, err
}

// TestGateWrongHash: a pass whose report differs from the others fails the
// run instead of being measured.
func TestGateWrongHash(t *testing.T) {
	w, _ := workloadByName("crawl-live")
	inner := w.setup
	w.setup = func(e *env, tr *tracer) (instance, error) {
		inst, err := inner(e, tr)
		return &faulty{inst}, err
	}
	_, err := measure(w, tinyEnv(t, 1), 0, newTracer(w.name))
	var gate gateError
	if !errors.As(err, &gate) {
		t.Fatalf("measure returned %v, want a gate failure", err)
	}
}

// TestGateDroppedObservation: a store that lost one observation fails the
// count gate; one whose status differs from the generator's counts as a
// failed operation.
func TestGateDroppedObservation(t *testing.T) {
	e := tinyEnv(t, 1)
	st := newStudy(nil, e.sh.storeDomains, e.sh.storeWeeks, e.seed, true)
	rewrite := func(edit func(n int, obs *store.Observation) bool) string {
		dir := e.fresh("store")
		sw, err := store.CreateSegmented(dir, e.sh.segments)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for w := 0; w < st.weeks; w++ {
			for i := range st.names {
				obs := store.Observation{Domain: st.names[i], Week: w, Status: int(st.status[i][w])}
				if edit(n, &obs) {
					if err := sw.Write(obs); err != nil {
						t.Fatal(err)
					}
				}
				n++
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	if failed, err := st.checkStores(nil, []string{rewrite(func(int, *store.Observation) bool { return true })}); err != nil || failed != 0 {
		t.Fatalf("intact store: failed %d, err %v", failed, err)
	}
	_, err := st.checkStores(nil, []string{rewrite(func(n int, _ *store.Observation) bool { return n != 7 })})
	var gate gateError
	if !errors.As(err, &gate) {
		t.Fatalf("dropped observation: %v, want a gate failure", err)
	}
	failed, err := st.checkStores(nil, []string{rewrite(func(n int, obs *store.Observation) bool {
		if n == 7 {
			obs.Status = 599
		}
		return true
	})})
	if err != nil || failed != 1 {
		t.Fatalf("wrong status: failed %d, err %v, want 1 failed", failed, err)
	}
}

// shedOnce answers one request with a 503 the server never sees.
type shedOnce struct {
	inner http.RoundTripper
	done  bool
}

func (s *shedOnce) RoundTrip(req *http.Request) (*http.Response, error) {
	if !s.done && req.Method == http.MethodPost {
		s.done = true
		return &http.Response{StatusCode: http.StatusServiceUnavailable, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader("audit queue full\n")), Request: req}, nil
	}
	return s.inner.RoundTrip(req)
}

// TestGate503: a shed reply is a failed operation, and one the server's own
// counters do not account for fails the reconciliation gate.
func TestGate503(t *testing.T) {
	inst, err := setupServeAudit(tinyEnv(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	s := inst.(*serveInst)
	if _, err := s.pass(); err != nil {
		t.Fatalf("clean pass: %v", err)
	}
	s.clients[0].Transport = &shedOnce{inner: s.clients[0].Transport}
	p, err := s.pass()
	var gate gateError
	if !errors.As(err, &gate) || p.failed != 1 {
		t.Fatalf("pass with a 503: failed %d, err %v, want 1 failed and a gate failure", p.failed, err)
	}
}

// TestDriverLine: a single-workload run ends with the driver's line, and in
// a directory without BENCHMARK.json's repository the summariser refuses.
func TestDriverLine(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out bytes.Buffer
	if err := runOne("direct-write", 1, 0, "trace.jsonl", tinyShape, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[key]; !ok {
			t.Errorf("driver line lacks %q", key)
		}
	}
	if len(last) != 4 {
		t.Errorf("driver line has %d keys, want exactly 4", len(last))
	}
	var first benchfmt.Result
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Workload != "direct-write" || first.Stamp.Go == "" {
		t.Errorf("result line %q: %v", lines[0], err)
	}
	if err := summariseFile("trace.jsonl", io.Discard); err == nil {
		t.Error("summarise without a BENCHMARK.json succeeded")
	}
	if entries, _ := os.ReadDir(".bench_build"); len(entries) != 0 {
		t.Errorf("run left %d entries in its scratch directory", len(entries))
	}
}
