package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"clientres/internal/alexa"
	"clientres/internal/core"
	"clientres/internal/crawler"
	"clientres/internal/distcrawl"
	"clientres/internal/fingerprint"
	"clientres/internal/store"
	"clientres/internal/webgen"
)

// distInst is dist-crawl after set-up: the crawl-shaped study through a
// coordinator, in-process workers, per-partition week barriers, one
// protocol commit per (partition, week), and the merge (without the PoC
// lab, so that its report compares with the other two crawls').
type distInst struct {
	e        *env
	study    *study
	sample   []crawler.Page
	observed []store.Observation
}

func setupDistCrawl(e *env, tr *tracer) (instance, error) {
	return &distInst{e: e, study: newStudy(tr, e.sh.crawlDomains, e.sh.crawlWeeks, e.seed, true)}, nil
}

func (d *distInst) wantSHA() string { return "" }
func (d *distInst) close()          {}

func (d *distInst) spec(dir string) distcrawl.RunSpec {
	sh := d.e.sh
	return distcrawl.RunSpec{
		Domains: sh.crawlDomains, Weeks: sh.crawlWeeks, Seed: d.e.seed,
		Bundling: bundling, BundleScan: true,
		Partitions: sh.distPartitions, Dir: dir,
		// Far longer than a pass: no lease expires, no heartbeat is due.
		LeaseTTL: 30 * time.Second,
	}
}

// genDirs lists the generation stores the accepted spans live in.
func genDirs(spec distcrawl.RunSpec, spans []distcrawl.Span) []string {
	var dirs []string
	seen := make(map[string]bool)
	for _, sp := range spans {
		dir := distcrawl.GenDir(spec.Dir, sp.Partition, sp.Epoch)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	return dirs
}

// run runs one worker function per worker to completion against a
// coordinator served on a real listener, then merges and renders.
func (d *distInst) run(p *pass, spec distcrawl.RunSpec, merge func(*distcrawl.Coordinator) (sha string, err error),
	worker func(ctx context.Context, w int, baseURL string) error) ([]distcrawl.Span, error) {
	var spans []distcrawl.Span
	err := p.timed(func() error {
		coord, err := distcrawl.NewCoordinator(spec)
		if err != nil {
			return err
		}
		srv := httptest.NewServer(coord.Handler())
		defer srv.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		errc := make(chan error, d.e.sh.distWorkers)
		for w := 0; w < d.e.sh.distWorkers; w++ {
			go func(w int) { errc <- worker(ctx, w, srv.URL) }(w)
		}
		for w := 0; w < d.e.sh.distWorkers; w++ {
			if werr := <-errc; werr != nil && err == nil {
				err = werr
				cancel()
			}
		}
		if err != nil {
			return err
		}
		if !coord.Done() {
			return errors.New("bench: dist-crawl: workers exited before the run completed")
		}
		spans = coord.Spans()
		p.sha, err = merge(coord)
		return err
	})
	return spans, err
}

// pass drives the product's Coordinator, Worker and Merge.
func (d *distInst) pass() (pass, error) {
	dir := d.e.fresh("dist")
	defer removeAll(dir)
	spec := d.spec(dir)
	var p pass
	spans, err := d.run(&p, spec,
		func(c *distcrawl.Coordinator) (string, error) {
			res, err := distcrawl.Merge(spec, c.Spans(), distcrawl.MergeOptions{SkipPoC: true})
			if err != nil {
				return "", err
			}
			return reportSHA(res), nil
		},
		func(ctx context.Context, w int, baseURL string) error {
			return (&distcrawl.Worker{
				ID:           fmt.Sprintf("bench-%d", w),
				Coord:        &distcrawl.Client{BaseURL: baseURL},
				CrawlWorkers: d.e.sh.distCrawlWorkers,
			}).Run(ctx)
		})
	if err != nil {
		return p, err
	}
	return p, d.study.checkPass(nil, &p, genDirs(spec, spans)...)
}

// protocolTransport records one span per worker-protocol exchange, named
// after the endpoint.
type protocolTransport struct{ tr *tracer }

func (t protocolTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := "rtt." + strings.TrimPrefix(req.URL.Path, "/v1/")
	return (&tracedTransport{http.DefaultTransport, t.tr, "distcrawl", op}).RoundTrip(req)
}

// tracedPass re-composes distcrawl.Worker.Run from the exported protocol
// client and the layers below it. The heartbeat goroutine is left out: at a
// 30 s lease no renewal falls due inside a pass.
func (d *distInst) tracedPass(tr *tracer) (pass, error) {
	dir := d.e.fresh("dist")
	defer removeAll(dir)
	spec := d.spec(dir)
	var p pass
	var mu sync.Mutex
	var memos []*fingerprint.Memo
	d.sample, d.observed = nil, nil
	root := tr.start(0, "core", "run")
	spans, err := d.run(&p, spec,
		func(c *distcrawl.Coordinator) (sha string, err error) {
			m := c.Status().Metrics
			tr.counter(root, "crawler", "attempts", m.Attempts, 0)
			tr.counter(root, "crawler", "retries", m.Retries, 0)
			tr.counter(root, "crawler", "conn_failures", m.ConnFailures, 0)
			id := tr.start(root, "distcrawl", "merge")
			res, err := distcrawl.Merge(spec, c.Spans(), distcrawl.MergeOptions{SkipPoC: true})
			if err != nil {
				return "", err
			}
			tr.end(id, d.study.ops(), 0)
			tr.call(root, "report", "render", 1, 0, func() { sha = reportSHA(res) })
			return sha, nil
		},
		func(ctx context.Context, w int, baseURL string) error {
			client := &distcrawl.Client{BaseURL: baseURL,
				HTTP: &http.Client{Timeout: 5 * time.Second, Transport: protocolTransport{tr}}}
			return d.tracedWorker(ctx, tr, root, fmt.Sprintf("bench-%d", w), client, func(ts *tracedShard) {
				mu.Lock()
				defer mu.Unlock()
				memos = append(memos, ts.memo)
				d.sample = append(d.sample, ts.sample...)
				d.observed = append(d.observed, ts.observed...)
			})
		})
	tr.end(root, d.study.ops(), 0)
	if err != nil {
		return p, err
	}
	memoCounters(tr, root, memos)
	if err := d.study.checkPass(tr, &p, genDirs(spec, spans)...); err != nil {
		return p, err
	}
	tr.counter(root, "store", "size", p.ops, p.bytes)
	return p, nil
}

// tracedWorker is one distributed worker: register, lease partitions until
// the run is done, crawl each week by week, committing to its own
// generation store first and to the coordinator second.
func (d *distInst) tracedWorker(ctx context.Context, tr *tracer, root int32, id string, coord *distcrawl.Client, done func(*tracedShard)) error {
	spec, err := coord.Register(id)
	if err != nil {
		return err
	}
	var eco *webgen.Ecosystem
	tr.call(root, "webgen", "new", int64(spec.Domains), 0, func() {
		eco = webgen.New(webgen.Config{Domains: spec.Domains, Weeks: spec.Weeks, Seed: spec.Seed, Bundling: spec.Bundling})
	})
	stop, baseURL, err := serveWeb(eco, tr)
	if err != nil {
		return err
	}
	defer stop()
	byName := eco.List.ByName()
	partDomains := make([][]string, spec.Partitions)
	for i := range eco.Sites {
		name := eco.Sites[i].Domain.Name
		p := store.ShardOf(name, spec.Partitions)
		partDomains[p] = append(partDomains[p], name)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		l, err := coord.Lease(id)
		if err != nil {
			return err
		}
		if l.Done {
			return nil
		}
		if !l.Assigned {
			select {
			case <-time.After(50 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if err := d.tracedAssignment(ctx, tr, root, id, coord, spec, l, baseURL, partDomains[l.Partition], byName, done); err != nil {
			return err
		}
	}
}

func (d *distInst) tracedAssignment(ctx context.Context, tr *tracer, root int32, id string, coord *distcrawl.Client,
	spec distcrawl.RunSpec, l distcrawl.LeaseResponse, baseURL string, domains []string,
	byName map[string]alexa.Domain, done func(*tracedShard)) (err error) {
	run := store.RunID{Seed: spec.Seed, Domains: spec.Domains, Weeks: spec.Weeks,
		Mode: int(core.ModeCrawl), Partition: l.Partition, Epoch: l.Epoch}
	sw, err := store.CreateSegmentedWith(distcrawl.GenDir(spec.Dir, l.Partition, l.Epoch), 1,
		store.SegmentedOptions{Checkpoint: true, Run: run})
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = sw.Abort()
		}
	}()
	slots := d.e.sh.distCrawlWorkers
	cr := crawler.New(crawler.Config{
		BaseURL: baseURL, Workers: slots,
		Backoff: crawler.Backoff{Seed: spec.Seed}, FetchScripts: spec.BundleScan,
		WrapTransport: func(inner http.RoundTripper) http.RoundTripper {
			return &tracedTransport{inner, tr, "crawler", "roundtrip"}
		},
	})
	ts := newTracedShard(tr, root, spec.Weeks, spec.Domains, byName, sw.Write, false)
	ts.keep = d.e.sh.samplePages / spec.Partitions
	defer done(ts)
	for week := l.StartWeek; week < spec.Weeks; week++ {
		wk := tr.start(root, "distcrawl", "week")
		tracedCrawlWeek(ctx, tr, wk, cr, slots, week, domains, ts.observe)
		if ts.err != nil {
			return ts.err
		}
		ts.flush()
		cid := tr.start(wk, "store", "commit")
		if err := sw.CommitWeek(week); err != nil {
			return err
		}
		tr.end(cid, 1, 0)
		resp, err := coord.Commit(distcrawl.CommitRequest{
			Worker: id, Partition: l.Partition, Epoch: l.Epoch, Week: week, Metrics: cr.Metrics(),
		})
		if err != nil {
			return err
		}
		if !resp.OK {
			return fmt.Errorf("bench: dist-crawl: commit of partition %d week %d fenced: %s", l.Partition, week, resp.Reason)
		}
		tr.end(wk, int64(len(domains)), 0)
		if resp.Done {
			break
		}
	}
	cid := tr.start(root, "store", "close")
	if err := sw.Close(); err != nil {
		return err
	}
	tr.end(cid, int64(sw.Count()), 0)
	return nil
}

func (d *distInst) probe(tr *tracer) error {
	probePages(tr, d.study, d.sample)
	probeCollectors(tr, d.study.weeks, d.study.domains, d.observed)
	return nil
}
