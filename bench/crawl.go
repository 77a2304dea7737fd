package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"clientres/internal/alexa"
	"clientres/internal/analysis"
	"clientres/internal/core"
	"clientres/internal/crawler"
	"clientres/internal/fingerprint"
	"clientres/internal/htmlx"
	"clientres/internal/semver"
	"clientres/internal/store"
	"clientres/internal/vulndb"
	"clientres/internal/webgen"
	"clientres/internal/webserver"
	"clientres/internal/wexbundle"
)

// crawlMode is how a crawl gets its pages.
type crawlMode int

const (
	crawlLive   crawlMode = iota // loopback HTTP against the synthetic web
	crawlRecord                  // live, archiving every exchange into a bundle
	crawlReplay                  // from a mounted bundle, no sockets
)

// crawlInst is crawl-live or crawl-replay after set-up.
type crawlInst struct {
	e     *env
	study *study
	mode  crawlMode
	// bundleDir holds the recorded bundle and recordSHA the report of the
	// run that recorded it (crawl-replay only).
	bundleDir string
	recordSHA string
	// sample and observed are what the last traced pass saw, for probe.
	sample   []crawler.Page
	observed []store.Observation
}

// crawlConfig is the study the crawl-shaped workloads share, as cmd/crawl
// runs it: bundle-aware scan, two analysis shards, a two-segment v3 store
// with an fsynced commit per week, and no PoC lab (its findings do not
// depend on the crawl; of the shipped commands only analyze and the
// coordinator's merge run it).
func crawlConfig(e *env, storeDir string) core.Config {
	return core.Config{
		Domains: e.sh.crawlDomains, Weeks: e.sh.crawlWeeks, Seed: e.seed,
		Bundling: bundling, BundleScan: true,
		Mode: core.ModeCrawl, Workers: e.sh.crawlWorkers,
		Shards: e.sh.shards, StorePath: storeDir, StoreSegments: e.sh.segments, Checkpoint: true,
		SkipPoC: true,
	}
}

func setupCrawlLive(e *env, tr *tracer) (instance, error) {
	return &crawlInst{e: e, mode: crawlLive,
		study: newStudy(tr, e.sh.crawlDomains, e.sh.crawlWeeks, e.seed, true)}, nil
}

// setupCrawlReplay records the bundle the timed region replays, with the
// same configuration plus RecordBundle (re-composed and traced on a traced
// run, which is where the recorder's per-layer readings come from).
func setupCrawlReplay(e *env, tr *tracer) (instance, error) {
	c := &crawlInst{e: e, mode: crawlReplay,
		study: newStudy(tr, e.sh.crawlDomains, e.sh.crawlWeeks, e.seed, true)}
	c.bundleDir = e.fresh("bundle")
	storeDir := e.fresh("record-store")
	defer removeAll(storeDir)
	if tr != nil {
		p, err := c.traced(tr, crawlRecord, storeDir)
		c.recordSHA = p.sha
		return c, err
	}
	cfg := crawlConfig(e, storeDir)
	cfg.RecordBundle = c.bundleDir
	var err error
	c.recordSHA, err = studySHA(cfg)
	return c, err
}

func (c *crawlInst) wantSHA() string { return c.recordSHA }
func (c *crawlInst) close()          { removeAll(c.bundleDir) }

// pass runs the study through core.Run and renders the report.
func (c *crawlInst) pass() (pass, error) {
	dir := c.e.fresh("store")
	defer removeAll(dir)
	cfg := crawlConfig(c.e, dir)
	if c.mode == crawlReplay {
		cfg.ReplayBundle = c.bundleDir
	}
	var p pass
	if err := p.timed(func() (err error) { p.sha, err = studySHA(cfg); return err }); err != nil {
		return p, err
	}
	return p, c.study.checkPass(nil, &p, dir)
}

func (c *crawlInst) tracedPass(tr *tracer) (pass, error) {
	dir := c.e.fresh("store")
	defer removeAll(dir)
	return c.traced(tr, c.mode, dir)
}

// traced is core.Run's crawl path re-composed from the layers' exported
// functions, with a span around each call into a layer: the same crawler,
// the same per-shard memo and collectors, the same store writer and commit
// points. Its report must hash like the product's.
func (c *crawlInst) traced(tr *tracer, mode crawlMode, storeDir string) (p pass, err error) {
	sh, ctx := c.e.sh, context.Background()
	run := store.RunID{Seed: c.e.seed, Domains: sh.crawlDomains, Weeks: sh.crawlWeeks, Mode: int(core.ModeCrawl)}
	var res *core.Results
	var cr *crawler.Crawler
	var memos []*fingerprint.Memo
	root := tr.start(0, "core", "run")
	err = p.timed(func() (err error) {
		var eco *webgen.Ecosystem
		tr.call(root, "webgen", "new", int64(sh.crawlDomains), 0, func() {
			eco = webgen.New(webgen.Config{Domains: sh.crawlDomains, Weeks: sh.crawlWeeks, Seed: c.e.seed, Bundling: bundling})
		})
		res = newResults(sh.crawlWeeks, sh.crawlDomains)
		res.Eco = eco

		sw, err := store.CreateSegmentedWith(storeDir, sh.segments, store.SegmentedOptions{Checkpoint: true, Run: run})
		if err != nil {
			return err
		}
		defer func() {
			if err != nil {
				_ = sw.Abort()
			}
		}()

		var wrap func(http.RoundTripper) http.RoundTripper
		baseURL := "http://wexbundle.invalid"
		var bw *wexbundle.Writer
		if mode == crawlReplay {
			var b *wexbundle.Bundle
			id := tr.start(root, "wexbundle", "mount")
			b, err = wexbundle.Mount(c.bundleDir)
			if err != nil {
				return err
			}
			tr.end(id, int64(b.Len()), 0)
			wrap = func(http.RoundTripper) http.RoundTripper {
				return &tracedTransport{b.Transport(), tr, "wexbundle", "replay"}
			}
		} else {
			stop, url, err := serveWeb(eco, tr)
			if err != nil {
				return err
			}
			defer stop()
			baseURL = url
			wrap = func(inner http.RoundTripper) http.RoundTripper {
				return &tracedTransport{inner, tr, "crawler", "roundtrip"}
			}
		}
		if mode == crawlRecord {
			bw, err = wexbundle.Create(c.bundleDir, wexbundle.Options{
				Segments: sh.segments, Checkpoint: true, Run: run,
				Meta: wexbundle.Meta{Domains: sh.crawlDomains, Weeks: sh.crawlWeeks, Seed: c.e.seed, BundleScan: true},
			})
			if err != nil {
				return err
			}
			defer func() {
				if err != nil {
					_ = bw.Abort()
				}
			}()
			live := wrap
			wrap = func(inner http.RoundTripper) http.RoundTripper {
				return &tracedTransport{&wexbundle.RecordingTransport{Inner: live(inner), W: bw}, tr, "wexbundle", "record"}
			}
		}
		cr = crawler.New(crawler.Config{
			BaseURL: baseURL, Workers: sh.crawlWorkers,
			Backoff: crawler.Backoff{Seed: c.e.seed}, FetchScripts: true, WrapTransport: wrap,
		})

		// One collector set, memo and worker per analysis shard, fed by
		// domain hash, as core does.
		byName := eco.List.ByName()
		shards := make([]*tracedShard, sh.shards)
		var pending, wg sync.WaitGroup
		for s := range shards {
			shards[s] = newTracedShard(tr, root, sh.crawlWeeks, sh.crawlDomains, byName, sw.Write, true)
			shards[s].keep = sh.samplePages / sh.shards
			memos = append(memos, shards[s].memo)
			wg.Add(1)
			go func(ts *tracedShard) {
				defer wg.Done()
				for pg := range ts.pages {
					ts.observe(pg)
					pending.Done()
				}
			}(shards[s])
		}
		closeShards := sync.OnceFunc(func() {
			for _, ts := range shards {
				close(ts.pages)
			}
			wg.Wait()
		})
		defer closeShards()

		for w := 0; w < sh.crawlWeeks; w++ {
			tracedCrawlWeek(ctx, tr, root, cr, sh.crawlWorkers, w, c.study.names, func(pg crawler.Page) {
				pending.Add(1)
				shards[store.ShardOf(pg.Domain, sh.shards)].pages <- pg
			})
			// The shard workers consume asynchronously: the week is only
			// complete, and safe to commit, once they have drained.
			pending.Wait()
			for _, ts := range shards {
				if ts.err != nil {
					return ts.err
				}
				ts.flush()
			}
			if bw != nil {
				id := tr.start(root, "wexbundle", "commit")
				if err := bw.CommitWeek(w); err != nil {
					return err
				}
				tr.end(id, 1, 0)
			}
			id := tr.start(root, "store", "commit")
			if err := sw.CommitWeek(w); err != nil {
				return err
			}
			tr.end(id, 1, 0)
		}
		closeShards()

		id := tr.start(root, "store", "close")
		if err := sw.Close(); err != nil {
			return err
		}
		tr.end(id, int64(sw.Count()), 0)
		if bw != nil {
			id := tr.start(root, "wexbundle", "close")
			if err := bw.Close(); err != nil {
				return err
			}
			tr.end(id, int64(bw.Count()), 0)
		}
		shardRes := make([]*core.Results, len(shards))
		for i, ts := range shards {
			shardRes[i] = ts.res
		}
		if p.sha, err = finish(tr, root, res, shardRes, false); err != nil {
			return err
		}

		c.sample, c.observed = nil, nil
		for _, ts := range shards {
			c.sample = append(c.sample, ts.sample...)
			c.observed = append(c.observed, ts.observed...)
		}
		return nil
	})
	tr.end(root, c.study.ops(), 0)
	if err != nil {
		return p, err
	}
	m := cr.Metrics()
	tr.counter(root, "crawler", "attempts", m.Attempts, 0)
	tr.counter(root, "crawler", "retries", m.Retries, 0)
	tr.counter(root, "crawler", "conn_failures", m.ConnFailures, 0)
	memoCounters(tr, root, memos)
	if err := c.study.checkPass(tr, &p, storeDir); err != nil {
		return p, err
	}
	tr.counter(root, "store", "size", p.ops, p.bytes)
	if mode == crawlRecord {
		n, err := dirBytes(c.bundleDir)
		if err != nil {
			return p, err
		}
		tr.counter(root, "wexbundle", "size", p.ops, n)
	}
	return p, nil
}

// serveWeb serves the synthetic web on a loopback listener, one span per
// request served, and returns its stop function and base URL.
func serveWeb(eco *webgen.Ecosystem, tr *tracer) (stop func(), baseURL string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: &tracedHandler{inner: webserver.New(eco), tr: tr, layer: "webserver", op: "serve"}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}
	return stop, "http://" + ln.Addr().String(), nil
}

// tracedCrawlWeek is crawler.CrawlWeek re-composed around the exported
// Fetch, so that every fetch — attempts, backoff sleeps and script fetches
// of one (domain, week) — is a span: a bounded pool of fetch slots, results
// handed to fn from a single goroutine in completion order.
func tracedCrawlWeek(ctx context.Context, tr *tracer, parent int32, cr *crawler.Crawler, slots, week int, domains []string, fn func(crawler.Page)) {
	wk := tr.start(parent, "crawler", "crawl_week")
	jobs := make(chan string)
	results := make(chan crawler.Page)
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range jobs {
				id := tr.start(wk, "crawler", "fetch")
				pg := cr.Fetch(withSpan(ctx, id), week, d)
				tr.end(id, 1, int64(len(pg.Body)))
				results <- pg
			}
		}()
	}
	go func() {
		for _, d := range domains {
			jobs <- d
		}
		close(jobs)
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	for pg := range results {
		fn(pg)
	}
	// Count is the fetch slots that were open for the length of this span.
	tr.end(wk, int64(slots), 0)
}

// tracedShard is one analysis shard of a traced crawl: what core's shard
// worker does to a fetched page, a span (or a per-week batch span, for the
// sub-microsecond calls) around each layer.
type tracedShard struct {
	tr     *tracer
	parent int32
	byName map[string]alexa.Domain
	res    *core.Results
	runner *analysis.Runner
	memo   *fingerprint.Memo
	write  func(store.Observation) error
	pages  chan crawler.Page
	err    error

	observation, observeB, writeB batch
	// keep bounds the pages sampled for the layer probes.
	keep     int
	sample   []crawler.Page
	observed []store.Observation
}

// newTracedShard builds a shard; collect is false for a distributed worker,
// which only writes observations and leaves collecting to the merge.
func newTracedShard(tr *tracer, parent int32, weeks, domains int, byName map[string]alexa.Domain, write func(store.Observation) error, collect bool) *tracedShard {
	ts := &tracedShard{tr: tr, parent: parent, byName: byName, write: write, memo: fingerprint.NewMemo(0),
		observation: batch{layer: "analysis", op: "observation"},
		observeB:    batch{layer: "analysis", op: "observe"},
		writeB:      batch{layer: "store", op: "write"},
		// The buffer core gives its shard channels.
		pages: make(chan crawler.Page, 128)}
	if collect {
		ts.res = newResults(weeks, domains)
		ts.runner = runnerOf(ts.res)
	}
	return ts
}

// observe reduces one fetched page to an observation, folds it into the
// shard's collectors and writes it.
func (ts *tracedShard) observe(pg crawler.Page) {
	if ts.err != nil {
		return // drain after a failure so the feeder never blocks
	}
	var det fingerprint.Detection
	status := pg.Status
	if pg.Err != nil {
		status = 0
	} else if status == http.StatusOK {
		id := ts.tr.start(ts.parent, "fingerprint", "memo_page")
		if len(pg.Scripts) > 0 {
			det = ts.memo.PageWithScripts(pg.Body, pg.Domain, scriptBodies(pg))
		} else {
			det = ts.memo.Page(pg.Body, pg.Domain)
		}
		ts.tr.end(id, 1, int64(len(pg.Body)))
		if len(ts.sample) < ts.keep && len(pg.Body) >= 400 {
			ts.sample = append(ts.sample, pg)
		}
	}
	var obs store.Observation
	ts.observation.time(func() {
		obs = analysis.ObservationFromCrawl(ts.byName[pg.Domain], pg.Week, status, pg.Body, det)
	})
	if ts.runner != nil {
		ts.observeB.time(func() { ts.runner.Observe(obs) })
	}
	ts.writeB.time(func() { ts.err = ts.write(obs) })
	ts.observed = append(ts.observed, obs)
}

// flush closes the week's batch spans; the shard's worker must be idle.
func (ts *tracedShard) flush() {
	flushChain(ts.tr, ts.parent, &ts.observation, &ts.observeB, &ts.writeB)
}

func scriptBodies(pg crawler.Page) []fingerprint.ScriptBody {
	scripts := make([]fingerprint.ScriptBody, len(pg.Scripts))
	for i, s := range pg.Scripts {
		scripts[i] = fingerprint.ScriptBody{URL: s.URL, Body: s.Body}
	}
	return scripts
}

// memoCounters records the memo's own hit and miss counts.
func memoCounters(tr *tracer, parent int32, memos []*fingerprint.Memo) {
	var hits, misses, scanHits, scanMisses uint64
	for _, m := range memos {
		h, mi := m.Stats()
		sh, sm := m.ScanStats()
		hits, misses, scanHits, scanMisses = hits+h, misses+mi, scanHits+sh, scanMisses+sm
	}
	tr.counter(parent, "fingerprint", "memo_hits", int64(hits), 0)
	tr.counter(parent, "fingerprint", "memo_misses", int64(misses), 0)
	tr.counter(parent, "fingerprint", "scan_memo_hits", int64(scanHits), 0)
	tr.counter(parent, "fingerprint", "scan_memo_misses", int64(scanMisses), 0)
}

// probe measures the single layers of the crawl path on pages the last
// traced pass fetched.
func (c *crawlInst) probe(tr *tracer) error {
	probePages(tr, c.study, c.sample)
	probeCollectors(tr, c.study.weeks, c.study.domains, c.observed)
	return nil
}

// probePages runs each layer of the page path alone, cold, on sampled
// pages: rendering, tokenizing, fingerprinting, signature scan, advisory
// match.
func probePages(tr *tracer, st *study, pages []crawler.Page) {
	match := batch{layer: "vulndb", op: "match"}
	for _, pg := range pages {
		i := st.index[pg.Domain]
		tr.call(0, "webgen", "render", 1, int64(len(pg.Body)), func() {
			st.eco.PageHTML(i, pg.Week)
			for _, s := range pg.Scripts {
				st.eco.AssetJS(i, pg.Week, s.URL)
			}
		})
		tr.call(0, "htmlx", "tags", 1, int64(len(pg.Body)), func() { htmlx.Tags(pg.Body) })
		var det fingerprint.Detection
		tr.call(0, "fingerprint", "page_cold", 1, int64(len(pg.Body)), func() {
			det = fingerprint.PageWithScripts(pg.Body, pg.Domain, scriptBodies(pg))
		})
		for _, s := range pg.Scripts {
			if s.Body != "" {
				tr.call(0, "fingerprint", "scan_cold", 1, int64(len(s.Body)), func() { fingerprint.ScanScript(s.Body) })
			}
		}
		for _, hit := range det.Libraries {
			if hit.Known && !hit.Version.IsZero() {
				match.time(func() { matchAdvisories(hit.Slug, hit.Version) })
			}
		}
	}
	flushChain(tr, 0, &match)
}

// matchAdvisories is the advisory match of one detected library as the
// audit service and the vulnerability collector do it: the library's
// advisories, each range checked against the version.
func matchAdvisories(slug string, v semver.Version) (n int) {
	for _, adv := range vulndb.AdvisoriesFor(slug) {
		if adv.EffectiveTrueRange().Contains(v) || adv.CVERange.Contains(v) {
			n++
		}
	}
	return n
}

// probeMatch runs the advisory match on the versioned libraries of the
// first n usable observations.
func probeMatch(tr *tracer, obs []store.Observation, n int) {
	match := batch{layer: "vulndb", op: "match"}
	for _, o := range obs {
		if n == 0 {
			break
		}
		if !o.OK() {
			continue
		}
		n--
		for _, rec := range o.Libs {
			if v, err := semver.Parse(rec.Version); err == nil && rec.Known {
				match.time(func() { matchAdvisories(rec.Slug, v) })
			}
		}
	}
	flushChain(tr, 0, &match)
}
