package main

import (
	"context"
	"fmt"

	"clientres/internal/analysis"
	"clientres/internal/core"
	"clientres/internal/store"
	"clientres/internal/webgen"
)

// bundling is the bundler adoption of every generated population: on three
// sites in ten the libraries ship inside one bundle, which only the
// content-signature scan can see.
var bundling = webgen.DefaultBundling(0.3)

// study is one generated population and what the generator knows about it:
// the ground truth every crawled observation is checked against.
type study struct {
	domains, weeks int
	seed           int64
	eco            *webgen.Ecosystem
	names          []string
	index          map[string]int
	// status[site][week] is the status the site answers with (0: dead).
	status [][]int16
}

// newStudy generates the population; withTruth also resolves every (site,
// week) status, which the crawl-shaped workloads check observations by.
func newStudy(tr *tracer, domains, weeks int, seed int64, withTruth bool) *study {
	s := &study{domains: domains, weeks: weeks, seed: seed}
	tr.call(0, "webgen", "new", int64(domains), 0, func() {
		s.eco = webgen.New(webgen.Config{Domains: domains, Weeks: weeks, Seed: seed, Bundling: bundling})
	})
	s.names = make([]string, domains)
	s.index = make(map[string]int, domains)
	s.status = make([][]int16, domains)
	for i, site := range s.eco.Sites {
		s.names[i] = site.Domain.Name
		s.index[site.Domain.Name] = i
		if !withTruth {
			continue
		}
		s.status[i] = make([]int16, weeks)
		for w := 0; w < weeks; w++ {
			s.status[i][w] = int16(s.eco.Truth(i, w).Status)
		}
	}
	return s
}

func (s *study) ops() int64 { return int64(s.domains) * int64(s.weeks) }

// checkStores reads back every store of one pass. Each store must pass
// store.Verify and together they must hold every (domain, week) of the
// study; an observation whose status is not the generator's for that
// (domain, week) is counted as a failed operation. On a traced run the two
// reads are spans of their own.
func (s *study) checkStores(tr *tracer, dirs []string) (failed int64, err error) {
	seen := make([][]bool, s.domains)
	for i := range seen {
		seen[i] = make([]bool, s.weeks)
	}
	var good, distinct int64
	for _, dir := range dirs {
		id := tr.start(0, "store", "verify")
		in, err := store.Verify(dir)
		if err != nil {
			return 0, err
		}
		tr.end(id, int64(in.TotalRecords), 0)
		id = tr.start(0, "store", "read")
		err = store.ForEachSegmented(dir, func(obs store.Observation) error {
			i, ok := s.index[obs.Domain]
			if !ok || obs.Week < 0 || obs.Week >= s.weeks {
				return fmt.Errorf("bench: %s: observation of %q week %d is not of this study", dir, obs.Domain, obs.Week)
			}
			if !seen[i][obs.Week] {
				distinct++
				if int16(obs.Status) == s.status[i][obs.Week] {
					good++
				}
			}
			seen[i][obs.Week] = true
			return nil
		})
		if err != nil {
			return 0, err
		}
		tr.end(id, int64(in.TotalRecords), 0)
	}
	if distinct != s.ops() {
		return 0, gateError{fmt.Sprintf("the stores hold %d of the study's %d (domain, week) observations", distinct, s.ops())}
	}
	return s.ops() - good, nil
}

// checkPass fills in what a study pass left behind in its stores and how
// many of its observations failed.
func (s *study) checkPass(tr *tracer, p *pass, dirs ...string) (err error) {
	p.ops = s.ops()
	if p.failed, err = s.checkStores(tr, dirs); err != nil {
		return err
	}
	for _, dir := range dirs {
		n, err := dirBytes(dir)
		if err != nil {
			return err
		}
		p.bytes += n
	}
	return nil
}

// studySHA runs a study through core.Run, renders its report and returns
// the report's hash: what every study pass and reference run does.
func studySHA(cfg core.Config) (string, error) {
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		return "", err
	}
	return reportSHA(res), nil
}

// newResults builds the nine collectors of a study shape the way
// internal/core does for itself (its constructor is unexported).
func newResults(weeks, domains int) *core.Results {
	return &core.Results{
		Weeks:     weeks,
		Coll:      analysis.NewCollection(weeks),
		Libs:      analysis.NewLibraryStats(weeks),
		Vuln:      analysis.NewVulnPrevalence(weeks),
		Delay:     analysis.NewUpdateDelay(weeks),
		SRI:       analysis.NewSRI(weeks),
		Flash:     analysis.NewFlash(weeks, domains),
		WordPress: analysis.NewWordPress(weeks),
		Disc:      analysis.NewDiscontinued(weeks),
		Regress:   analysis.NewRegressions(weeks),
	}
}

// collectorNames are the per-layer metric suffixes of the nine collectors,
// in the order collectorsOf returns them.
var collectorNames = []string{
	"collection", "libraries", "vuln", "delay", "sri", "flash", "wordpress", "discontinued", "regressions",
}

func collectorsOf(r *core.Results) []analysis.Collector {
	return []analysis.Collector{r.Coll, r.Libs, r.Vuln, r.Delay, r.SRI, r.Flash, r.WordPress, r.Disc, r.Regress}
}

func runnerOf(r *core.Results) *analysis.Runner { return analysis.NewRunner(collectorsOf(r)...) }

// probeCollectors folds the observations into each collector alone, one
// span per collector; obs must hold each domain's weeks in ascending order.
func probeCollectors(tr *tracer, weeks, domains int, obs []store.Observation) {
	for i, c := range collectorsOf(newResults(weeks, domains)) {
		tr.call(0, "analysis", "collect."+collectorNames[i], int64(len(obs)), 0, func() {
			for j := range obs {
				c.Observe(obs[j])
			}
		})
	}
}
