package main

import (
	"fmt"
	"sync"

	"clientres/internal/analysis"
	"clientres/internal/core"
	"clientres/internal/poclab"
	"clientres/internal/store"
	"clientres/internal/webgen"
)

// storeInst is direct-write or store-analyze after set-up. The two share
// one study, so a store format change that speeds one side at the other's
// cost shows in the pair.
type storeInst struct {
	e *env
	// analyze selects store-analyze; otherwise direct-write.
	analyze bool
	// storeDir is the store written in set-up (store-analyze only).
	storeDir string
	// refSHA is the report every pass must reproduce: for direct-write the
	// serial, store-less reference run's; for store-analyze the report of
	// the run that wrote the store.
	refSHA string
	// fullSHA is the first store-analyze pass's report as rendered, PoC
	// findings included; the later passes must render the same.
	fullSHA  string
	observed []store.Observation
}

func (s *storeInst) ops() int64 { return int64(s.e.sh.storeDomains) * int64(s.e.sh.storeWeeks) }

// directConfig is the store-shaped study from generator truth, as
// cmd/gendata runs it: no crawler, no fingerprinting, no PoC lab. With a
// store path it writes the two-segment v3 store with an fsynced commit per
// week.
func directConfig(e *env, storeDir string) core.Config {
	cfg := core.Config{
		Domains: e.sh.storeDomains, Weeks: e.sh.storeWeeks, Seed: e.seed,
		Bundling: bundling, Mode: core.ModeDirect, Shards: 1, SkipPoC: true,
	}
	if storeDir != "" {
		cfg.Shards, cfg.StorePath, cfg.StoreSegments, cfg.Checkpoint = e.sh.shards, storeDir, e.sh.segments, true
	}
	return cfg
}

func setupDirectWrite(e *env, _ *tracer) (instance, error) {
	sha, err := studySHA(directConfig(e, ""))
	return &storeInst{e: e, refSHA: sha}, err
}

func setupStoreAnalyze(e *env, _ *tracer) (instance, error) {
	s := &storeInst{e: e, analyze: true, storeDir: e.fresh("store")}
	var err error
	s.refSHA, err = studySHA(directConfig(e, s.storeDir))
	return s, err
}

func (s *storeInst) wantSHA() string { return s.refSHA }

func (s *storeInst) close() {
	if s.storeDir != "" {
		removeAll(s.storeDir)
	}
}

func (s *storeInst) pass() (pass, error) {
	if s.analyze {
		return s.analyzePass()
	}
	dir := s.e.fresh("store")
	defer removeAll(dir)
	cfg := directConfig(s.e, dir)
	var p pass
	if err := p.timed(func() (err error) { p.sha, err = studySHA(cfg); return err }); err != nil {
		return p, err
	}
	return p, s.check(nil, &p, dir)
}

// analyzePass is cmd/analyze: replay the store into the nine collectors on
// two shards, run the PoC lab, render the report.
func (s *storeInst) analyzePass() (pass, error) {
	sh := s.e.sh
	var p pass
	var res *core.Results
	var full string
	err := p.timed(func() (err error) {
		if res, err = core.RunFromStore(s.storeDir, sh.storeWeeks, sh.storeDomains, sh.shards); err != nil {
			return err
		}
		full = reportSHA(res)
		return nil
	})
	if err != nil {
		return p, err
	}
	if err := s.bareSHA(&p, res, full); err != nil {
		return p, err
	}
	return p, s.check(nil, &p, s.storeDir)
}

// bareSHA sets the pass's report hash to that of the report without the PoC
// lab's findings. core.RunFromStore always runs the lab; the runs that
// write stores (this one's set-up, direct-write) never do, and the findings
// do not depend on the store, so this is the hash the two sides share. The
// report as rendered must still be the same on every pass.
func (s *storeInst) bareSHA(p *pass, res *core.Results, full string) error {
	if s.fullSHA == "" {
		s.fullSHA = full
	}
	if full != s.fullSHA {
		return gateError{fmt.Sprintf("store-analyze: report with findings %s, on the first pass %s", full, s.fullSHA)}
	}
	res.Findings = nil
	p.sha = reportSHA(res)
	return nil
}

// check verifies the store of a pass: it must pass store.Verify and hold
// exactly the study's domains × weeks observations. The store-shaped
// workloads have no other way for an operation to fail, so a pass that gets
// here has none failed.
func (s *storeInst) check(tr *tracer, p *pass, dir string) error {
	id := tr.start(0, "store", "verify")
	in, err := store.Verify(dir)
	if err != nil {
		return err
	}
	tr.end(id, int64(in.TotalRecords), 0)
	if p.ops = s.ops(); int64(in.TotalRecords) != p.ops {
		return gateError{fmt.Sprintf("%s holds %d observations, the study has %d", dir, in.TotalRecords, p.ops)}
	}
	p.bytes, err = dirBytes(dir)
	return err
}

func (s *storeInst) tracedPass(tr *tracer) (pass, error) {
	if s.analyze {
		return s.tracedAnalyze(tr)
	}
	dir := s.e.fresh("store")
	defer removeAll(dir)
	return s.tracedWrite(tr, dir)
}

// finish is the tail every study pipeline shares: merge the shards'
// collectors, run the PoC lab, render the report. poc is true only for
// store-analyze: core.RunFromStore cannot skip the lab.
func finish(tr *tracer, root int32, res *core.Results, shards []*core.Results, poc bool) (sha string, err error) {
	tr.call(root, "analysis", "merge", int64(len(shards)), 0, func() {
		for _, sr := range shards {
			res.Merge(sr)
		}
	})
	if poc {
		id := tr.start(root, "poclab", "run_all")
		if res.Findings, err = poclab.RunAll(); err != nil {
			return "", err
		}
		tr.end(id, int64(len(res.Findings)), 0)
	}
	tr.call(root, "report", "render", 1, 0, func() { sha = reportSHA(res) })
	return sha, nil
}

// tracedWrite is core.Run's direct path re-composed: sites partitioned by
// domain hash, each shard resolving truth, reducing it to an observation,
// folding and writing it on its own goroutine, a barrier and a commit per
// week. Every per-observation call is far under 10 µs, so each gets one
// batch span per shard and week.
func (s *storeInst) tracedWrite(tr *tracer, dir string) (p pass, err error) {
	sh := s.e.sh
	run := store.RunID{Seed: s.e.seed, Domains: sh.storeDomains, Weeks: sh.storeWeeks, Mode: int(core.ModeDirect)}
	root := tr.start(0, "core", "run")
	observed := make([][]store.Observation, sh.shards)
	err = p.timed(func() (err error) {
		var eco *webgen.Ecosystem
		tr.call(root, "webgen", "new", int64(sh.storeDomains), 0, func() {
			eco = webgen.New(webgen.Config{Domains: sh.storeDomains, Weeks: sh.storeWeeks, Seed: s.e.seed, Bundling: bundling})
		})
		res := newResults(sh.storeWeeks, sh.storeDomains)
		res.Eco = eco
		sw, err := store.CreateSegmentedWith(dir, sh.segments, store.SegmentedOptions{Checkpoint: true, Run: run})
		if err != nil {
			return err
		}
		defer func() {
			if err != nil {
				_ = sw.Abort()
			}
		}()
		parts := make([][]int, sh.shards)
		for i := range eco.Sites {
			k := store.ShardOf(eco.Sites[i].Domain.Name, sh.shards)
			parts[k] = append(parts[k], i)
		}
		shardRes := make([]*core.Results, sh.shards)
		runners := make([]*analysis.Runner, sh.shards)
		for k := range shardRes {
			shardRes[k] = newResults(sh.storeWeeks, sh.storeDomains)
			runners[k] = runnerOf(shardRes[k])
		}
		errs := make([]error, sh.shards)
		for w := 0; w < sh.storeWeeks; w++ {
			var wg sync.WaitGroup
			for k := 0; k < sh.shards; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					truthB := batch{layer: "webgen", op: "truth"}
					obsB := batch{layer: "analysis", op: "observation"}
					observeB := batch{layer: "analysis", op: "observe"}
					writeB := batch{layer: "store", op: "write"}
					for _, i := range parts[k] {
						var t webgen.PageTruth
						var obs store.Observation
						truthB.time(func() { t = eco.Truth(i, w) })
						obsB.time(func() { obs = analysis.ObservationFromTruth(eco.Sites[i].Domain, t) })
						observeB.time(func() { runners[k].Observe(obs) })
						writeB.time(func() { errs[k] = sw.Write(obs) })
						if errs[k] != nil {
							return
						}
						observed[k] = append(observed[k], obs)
					}
					flushChain(tr, root, &truthB, &obsB, &observeB, &writeB)
				}(k)
			}
			wg.Wait()
			for _, e := range errs {
				if e != nil {
					return e
				}
			}
			id := tr.start(root, "store", "commit")
			if err := sw.CommitWeek(w); err != nil {
				return err
			}
			tr.end(id, 1, 0)
		}
		id := tr.start(root, "store", "close")
		if err := sw.Close(); err != nil {
			return err
		}
		tr.end(id, int64(sw.Count()), 0)
		p.sha, err = finish(tr, root, res, shardRes, false)
		return err
	})
	tr.end(root, s.ops(), 0)
	if err != nil {
		return p, err
	}
	s.observed = nil
	for _, o := range observed {
		s.observed = append(s.observed, o...)
	}
	if err := s.check(tr, &p, dir); err != nil {
		return p, err
	}
	tr.counter(root, "store", "size", p.ops, p.bytes)
	return p, nil
}

// tracedAnalyze is core.RunFromStore's aligned path re-composed: one
// decoder goroutine per segment feeding its shard's collectors directly.
// The read span's self time is the decode; its child is the week's folds.
func (s *storeInst) tracedAnalyze(tr *tracer) (p pass, err error) {
	sh := s.e.sh
	root := tr.start(0, "core", "run")
	var res *core.Results
	var full string
	err = p.timed(func() error {
		man, err := store.ReadManifest(s.storeDir)
		if err != nil {
			return err
		}
		if man.Segments != sh.shards {
			return fmt.Errorf("bench: store-analyze: %d segments for %d shards: not the aligned path", man.Segments, sh.shards)
		}
		res = newResults(sh.storeWeeks, sh.storeDomains)
		shardRes := make([]*core.Results, sh.shards)
		errs := make([]error, sh.shards)
		var wg sync.WaitGroup
		for k := range shardRes {
			shardRes[k] = newResults(sh.storeWeeks, sh.storeDomains)
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				runner := runnerOf(shardRes[k])
				observeB := batch{layer: "analysis", op: "observe"}
				id := tr.start(root, "store", "read")
				errs[k] = store.ForEachSegment(s.storeDir, k, func(obs store.Observation) error {
					observeB.time(func() { runner.Observe(obs) })
					return nil
				})
				n := observeB.count
				flushChain(tr, id, &observeB)
				tr.end(id, n, 0)
			}(k)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		full, err = finish(tr, root, res, shardRes, true)
		return err
	})
	tr.end(root, s.ops(), 0)
	if err != nil {
		return p, err
	}
	if err := s.bareSHA(&p, res, full); err != nil {
		return p, err
	}
	if err := s.check(tr, &p, s.storeDir); err != nil {
		return p, err
	}
	tr.counter(root, "store", "size", p.ops, p.bytes)
	return p, nil
}

// probe measures each collector alone and the advisory match on the
// libraries the observations carry.
func (s *storeInst) probe(tr *tracer) error {
	if s.analyze {
		// Read outside any span: the decoder reuses its buffers between
		// calls, so what is kept must be cloned.
		s.observed = nil
		err := store.ForEachSegmented(s.storeDir, func(obs store.Observation) error {
			s.observed = append(s.observed, obs.Clone())
			return nil
		})
		if err != nil {
			return err
		}
	}
	probeCollectors(tr, s.e.sh.storeWeeks, s.e.sh.storeDomains, s.observed)
	probeMatch(tr, s.observed, s.e.sh.samplePages)
	return nil
}
